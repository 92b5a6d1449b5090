//! Keeps the CPUs from halting while a workload runs.
//!
//! Federated OJSP is a chain of cross-thread wake-ups (client → pool event
//! loop → server connection thread and back), each of about a hundred
//! microseconds of work.  On the 2-vCPU VM the numbers were taken on, a
//! thread woken on an idle vCPU waits for the hypervisor to schedule that
//! vCPU again, and what that costs depends on the host's halt-polling state,
//! not on the program: identical runs read a p50 of 1.0 ms or of 7 ms for
//! ten seconds at a stretch, and the interquartile spread of ten runs was
//! 26% of the median for throughput and 50% for p90.  With one `nice -n 19`
//! spinner per CPU the vCPUs never halt, a wake-up is an ordinary
//! preemption of the spinner, and the same ten runs spread by a few percent
//! — at about half the latency, because the hypervisor's share is gone.
//! The same trade is made on bare metal by disabling C-states before
//! measuring latency.
//!
//! The spinner is this binary run with `--spin`; it exits when its stdin
//! closes, so it cannot outlive a benchmark that is killed.

use std::io::Read;
use std::process::{Child, Command, Stdio};

/// The running spinners.  Dropping the guard kills and reaps them.
pub struct KeepAwake {
    children: Vec<Child>,
}

impl KeepAwake {
    /// Starts one lowest-priority spinner per CPU.  Without a `nice`
    /// command (or a path to this executable) none start and the run goes
    /// on as the environment allows; the `env` block says how many run.
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let children = std::env::current_exe()
            .map(|exe| {
                (0..cpus)
                    .map_while(|_| {
                        Command::new("nice")
                            .args(["-n", "19"])
                            .arg(&exe)
                            .arg("--spin")
                            .stdin(Stdio::piped())
                            .stdout(Stdio::null())
                            .stderr(Stdio::null())
                            .spawn()
                            .ok()
                    })
                    .collect()
            })
            .unwrap_or_default();
        Self { children }
    }

    pub fn spinners(&self) -> usize {
        self.children.len()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The body of `fedbench --spin`: spins until stdin reaches end of file
/// (the parent dropped its end, or died) or the process is killed.
pub fn spin_until_stdin_closes() {
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    loop {
        std::hint::spin_loop();
    }
}
