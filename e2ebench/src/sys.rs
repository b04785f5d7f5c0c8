//! Process plumbing: one-shot children timed and reaped with their own
//! resource usage, the resident daemon as an RAII guard, and the host
//! facts recorded with every result.
//!
//! The workspace is offline, so the two libc calls this needs (`wait4`
//! for a child's `rusage`, `kill` for the guard's last resort) are
//! declared here against the libc `std` already links, in the style of
//! `tpp-store`'s mmap module. Linux only: the daemon's peak comes from
//! `/proc/<pid>/status`.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod ffi {
    use std::os::raw::{c_int, c_long};

    /// `struct timeval` of the Linux 64-bit ABIs.
    #[repr(C)]
    pub struct Timeval {
        pub sec: c_long,
        pub usec: c_long,
    }

    /// `struct rusage` of the Linux 64-bit ABIs: two timevals, then
    /// fourteen longs of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: c_long,
        pub rest: [c_long; 13],
    }

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    pub const SIGKILL: c_int = 9;
}

/// What one finished one-shot child left behind.
pub struct ChildRun {
    pub stdout: String,
    pub stderr: String,
    pub success: bool,
    /// The child's own peak resident set, from its `rusage` (`wait4`
    /// reports it per child, so set-up children never leak into the
    /// measured peak the way a `RUSAGE_CHILDREN` total would).
    pub max_rss_kib: u64,
}

/// Runs `program args...` to completion with piped output and reaps it
/// through `wait4`.
pub fn run_child(program: &Path, args: &[String]) -> Result<ChildRun, String> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", program.display()))?;
    let mut stdout = String::new();
    let out_pipe = child.stdout.take();
    let err_pipe = child.stderr.take();
    // Drain stderr on a scoped thread so neither pipe can fill and stall
    // the child; both are closed by the time the child exits.
    let stderr = std::thread::scope(|s| {
        let err_reader = s.spawn(move || {
            let mut text = String::new();
            if let Some(mut p) = err_pipe {
                let _ = p.read_to_string(&mut text);
            }
            text
        });
        if let Some(mut p) = out_pipe {
            let _ = p.read_to_string(&mut stdout);
        }
        err_reader.join().expect("stderr reader does not panic")
    });
    let (status, usage) = reap(&child)?;
    Ok(ChildRun {
        stdout,
        stderr,
        success: exited_zero(status),
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// `wait4` on one child: its exit status and its own resource usage.
fn reap(child: &Child) -> Result<(i32, ffi::Rusage), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range")?;
    let mut status = 0;
    let mut usage = ffi::Rusage {
        utime: ffi::Timeval { sec: 0, usec: 0 },
        stime: ffi::Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the Linux ABI's `int` and `struct rusage`; `pid` is our own
        // unreaped child (std never waits on it behind our back).
        let r = unsafe { ffi::wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
}

/// `WIFEXITED(status) && WEXITSTATUS(status) == 0`.
fn exited_zero(status: i32) -> bool {
    status & 0x7f == 0 && (status >> 8) & 0xff == 0
}

/// A running `tpp serve`: shut down over its socket on [`Daemon::stop`],
/// killed and reaped on drop if it is still alive (an error path), so no
/// run leaves a server behind.
pub struct Daemon {
    child: Option<Child>,
    socket: String,
}

impl Daemon {
    /// Starts `tpp serve` on `socket` and waits until it answers `ping`.
    pub fn start(tpp: &Path, socket: &str, threads: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(tpp)
            .args([
                "serve",
                "--socket",
                socket,
                "--threads",
                &threads.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning tpp serve: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_string(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if daemon.request(&["ping"]).is_ok() {
                return Ok(daemon);
            }
            if let Some(c) = daemon.child.as_mut() {
                if let Ok(Some(status)) = c.try_wait() {
                    daemon.child = None;
                    return Err(format!("tpp serve exited during start-up: {status}"));
                }
            }
            if Instant::now() > deadline {
                return Err("tpp serve did not answer ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// One request over the socket; `Err` carries an error reply.
    pub fn request<S: AsRef<str>>(&self, argv: &[S]) -> Result<String, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.as_ref().to_string()).collect();
        tpp_cli::serve::request(&self.socket, &argv)
    }

    /// The daemon's peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let pid = self.pid().ok_or("daemon is not running")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let reply = self.request(&["shutdown"]);
        let mut child = self.child.take().expect("stop consumes a live daemon");
        if reply.is_err() {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for tpp serve: {e}"))?;
        reply?;
        if !status.success() {
            return Err(format!("tpp serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            if let Ok(pid) = i32::try_from(child.id()) {
                // SAFETY: plain syscall on our own unreaped child's pid.
                unsafe { ffi::kill(pid, ffi::SIGKILL) };
            }
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checkout's git revision, or `unknown` outside a git repository.
pub fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
