//! The `speakup` binary must survive stderr writes from threads other
//! than `main`: pool workers print the `--shards` clamp warning, shard
//! threads print the barrier-watchdog dump and their panic messages. A
//! binary that holds the stderr lock across the whole command turns each
//! of those into a deadlock, so this drives the real executable, not the
//! library.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn pooled_clamped_sharded_run_exits_and_warns() {
    // `--shards 64` exceeds fig2's one replica island, so the clamp warning
    // fires on a `--jobs 2` pool worker while `main` waits for the pool.
    let mut child = Command::new(env!("CARGO_BIN_EXE_speakup"))
        .args([
            "run", "fig2", "--secs", "1", "--shards", "64", "--jobs", "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the speakup binary");
    // The run takes a second or two; a minute without an exit is the hang.
    let mut status = None;
    for _ in 0..1200 {
        status = child.try_wait().expect("poll the child");
        if status.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let Some(status) = status else {
        child.kill().expect("kill the hung child");
        child.wait().expect("reap the hung child");
        panic!("speakup hung: a worker thread's stderr write never returned");
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr was piped")
        .read_to_string(&mut stderr)
        .expect("read the child's stderr");
    assert!(status.success(), "speakup failed: {status}\n{stderr}");
    assert!(
        stderr.contains("warning: --shards 64 exceeds"),
        "no clamp warning on stderr:\n{stderr}"
    );
}
