//! The daemon child process: this binary re-executed with the `daemon`
//! subcommand, so the benchmark needs no second build artefact and the daemon
//! is compiled with exactly the benchmark's settings.
//!
//! [`DaemonHost`] owns everything a run leaves outside its own memory — the
//! child process and the run directory (state dir + addr file) — and releases
//! both in `Drop`, which also runs while a panic unwinds.

use mbsp::serve::{Server, ServerConfig};
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How long a spawned daemon may take to publish its address.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(120);

/// Body of the `daemon` subcommand: serve until killed.
///
/// The address goes back to the parent through `addr_file` (written to a
/// temporary name and renamed, so the parent never reads half of it). Stdin is
/// a pipe held by the parent: end-of-file means the parent is gone, and the
/// daemon exits instead of lingering as an orphan.
pub fn serve(state_dir: &Path, addr_file: &Path) -> Result<(), String> {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        state_dir: state_dir.to_path_buf(),
        workers: 0,
    })
    .map_err(|e| format!("daemon failed to start: {e}"))?;
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, server.local_addr().to_string())
        .and_then(|()| std::fs::rename(&tmp, addr_file))
        .map_err(|e| format!("cannot write {}: {e}", addr_file.display()))?;
    std::thread::spawn(|| {
        let mut byte = [0u8; 1];
        while matches!(std::io::stdin().read(&mut byte), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    server.join();
    Ok(())
}

/// CPU time and peak memory of daemon processes, read from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    /// `utime + stime` summed over every incarnation sampled so far.
    pub cpu_s: f64,
    /// Largest `VmHWM` seen over every incarnation.
    pub peak_rss_mb: f64,
}

pub struct DaemonHost {
    run_dir: PathBuf,
    child: Option<Child>,
    usage: ProcUsage,
}

impl DaemonHost {
    /// Creates the run directory `<out_dir>/run-<pid>-<tag>`; no process yet.
    pub fn new(out_dir: &Path, tag: &str) -> std::io::Result<DaemonHost> {
        let run_dir = out_dir.join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&run_dir);
        std::fs::create_dir_all(run_dir.join("state"))?;
        Ok(DaemonHost {
            run_dir,
            child: None,
            usage: ProcUsage::default(),
        })
    }

    pub fn state_dir(&self) -> PathBuf {
        self.run_dir.join("state")
    }

    /// A scratch directory next to the state dir (the shadow replay writes its
    /// checkpoints there, on the same filesystem as the daemon's).
    pub fn scratch_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.run_dir.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Starts (or restarts) the daemon on the run's state dir and returns the
    /// address it bound. `MBSP_BENCH_THREADS` is scrubbed so the pool sizes
    /// itself from the machine, as a deployed daemon would.
    pub fn spawn(&mut self) -> Result<SocketAddr, String> {
        assert!(self.child.is_none(), "daemon already running");
        let addr_file = self.run_dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--state-dir")
            .arg(self.state_dir())
            .arg("--addr-file")
            .arg(&addr_file)
            .env_remove("MBSP_BENCH_THREADS")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let child = self.child.insert(child);
        let started = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                return text
                    .parse()
                    .map_err(|e| format!("bad daemon address {text:?}: {e}"));
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("the daemon exited during start-up: {status}"));
            }
            if started.elapsed() > SPAWN_TIMEOUT {
                return Err("the daemon did not publish its address in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Folds the running daemon's `/proc` counters into the run's usage. CPU
    /// time is cumulative per process, so this is called once per incarnation,
    /// right before it is killed.
    fn sample(&mut self) {
        let Some(child) = &self.child else { return };
        let pid = child.id();
        if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
            // Fields after the parenthesised command name; utime and stime are
            // fields 14 and 15 of the line, i.e. 11 and 12 after `(comm) `.
            if let Some((_, rest)) = stat.rsplit_once(") ") {
                let fields: Vec<&str> = rest.split(' ').collect();
                let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
                if let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) {
                    self.usage.cpu_s += (utime + stime) / clock_ticks_per_second();
                }
            }
        }
        if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
            let hwm_kb = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
            if let Some(kb) = hwm_kb {
                self.usage.peak_rss_mb = self.usage.peak_rss_mb.max(kb / 1024.0);
            }
        }
    }

    /// `kill -9` and reap. Returns the instant the child was reaped.
    pub fn kill(&mut self) -> Instant {
        self.sample();
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        Instant::now()
    }

    /// Usage of every incarnation so far; call after the last [`kill`].
    ///
    /// [`kill`]: DaemonHost::kill
    pub fn usage(&self) -> ProcUsage {
        self.usage
    }

    /// Total size of the files in the state dir.
    pub fn state_dir_bytes(&self) -> u64 {
        std::fs::read_dir(self.state_dir())
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for DaemonHost {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }
}

/// `_SC_CLK_TCK` without libc: ask `getconf` (once per process — creating a
/// host is part of the timed set-up), fall back to Linux's fixed 100.
fn clock_ticks_per_second() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|&t| t > 0.0)
            .unwrap_or(100.0)
    })
}
