//! Processes and files the benchmark owns: the spawned `ppdt serve`
//! daemon (SIGTERM and reaped on drop, so also when the benchmark
//! panics), scratch directories removed on drop, and `/proc` readings
//! of a process's memory, CPU time and context switches.

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A directory created empty and removed with everything in it on
/// drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(path: PathBuf) -> ScratchDir {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory inside the checkout");
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `ppdt serve` on an OS-assigned loopback port, with its
/// own fresh key store.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: std::io::Lines<std::io::BufReader<ChildStdout>>,
    pub addr: SocketAddr,
    pub pid: u32,
    // Dropped after the child is reaped (fields drop in order).
    _keystore: ScratchDir,
}

impl Daemon {
    /// Spawns `ppdt serve` with its shipped defaults plus `extra`
    /// flags, and waits for its listen line.
    pub fn spawn(ppdt: &Path, keystore: ScratchDir, extra: &[&str]) -> Daemon {
        let mut child = Command::new(ppdt)
            .arg("serve")
            .arg("--keystore-dir")
            .arg(keystore.path())
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", ppdt.display()));
        let mut lines =
            std::io::BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let line = lines.next().and_then(Result::ok).unwrap_or_default();
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon printed no listen line (got {line:?})");
        };
        let pid = child.id();
        Daemon { child, _stdout: lines, addr, pid, _keystore: keystore }
    }
}

impl Drop for Daemon {
    /// SIGTERM (the daemon drains), a bounded wait, then SIGKILL; the
    /// child is always reaped.
    fn drop(&mut self) {
        let _ = Command::new("kill")
            .args(["-TERM", &self.pid.to_string()])
            .stderr(Stdio::null())
            .status();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `kB` field of `/proc/<pid>/status`, in MiB.
fn status_kb(pid: u32, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..].split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmHWM:").expect("read VmHWM from /proc")
}

/// User plus system CPU time of every thread of `pid`, microseconds.
pub fn cpu_us(pid: u32) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &text[text.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().unwrap_or(0) + fields[12].parse::<u64>().unwrap_or(0);
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks as f64 * 10_000.0
}

/// Voluntary plus involuntary context switches summed over every
/// thread of `pid`.
pub fn ctx_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    let mut total = 0;
    for task in tasks.flatten() {
        let Ok(text) = std::fs::read_to_string(task.path().join("status")) else { continue };
        for line in text.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    total
}

/// A `/proc` reading of one process, for before/after deltas.
#[derive(Clone, Copy, Debug)]
pub struct ProcSample {
    pub cpu_us: f64,
    pub ctx_switches: u64,
}

impl ProcSample {
    pub fn of(pid: u32) -> ProcSample {
        ProcSample { cpu_us: cpu_us(pid), ctx_switches: ctx_switches(pid) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::PermissionsExt as _;

    /// A stand-in `ppdt` that prints a listen line and then sleeps.
    fn fake_ppdt(dir: &Path) -> PathBuf {
        let path = dir.join("ppdt");
        std::fs::write(
            &path,
            "#!/bin/sh\necho 'ppdt-serve listening on 127.0.0.1:9 (test)'\nexec sleep 30\n",
        )
        .expect("write fake daemon");
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        path
    }

    #[test]
    fn a_panicking_run_still_stops_the_daemon_and_removes_its_key_store() {
        let root = std::env::temp_dir().join(format!("perfbench-sys-{}", std::process::id()));
        let bin = ScratchDir::new(root.join("bin"));
        let ppdt = fake_ppdt(bin.path());
        let store = root.join("keystore");
        let (tx, rx) = std::sync::mpsc::channel();
        let outcome = std::panic::catch_unwind(|| {
            let daemon = Daemon::spawn(&ppdt, ScratchDir::new(store.clone()), &[]);
            tx.send((daemon.pid, daemon.addr)).expect("send pid");
            panic!("the benchmark fails mid-run");
        });
        assert!(outcome.is_err());
        let (pid, addr) = rx.recv().expect("daemon spawned");
        assert_eq!(addr, "127.0.0.1:9".parse().unwrap());
        assert!(!Path::new(&format!("/proc/{pid}")).exists(), "daemon {pid} was not reaped");
        assert!(!store.exists(), "key store left behind");
        drop(bin);
        let _ = std::fs::remove_dir_all(&root);
    }
}
