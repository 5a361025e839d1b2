//! Keeps the CPUs out of their idle state while a run measures.
//!
//! On a virtual machine, a CPU with nothing to run halts, and waking it
//! again (a timer firing, a packet arriving) costs a trip through the host
//! scheduler that grows with the host's load. Light-rate latency then
//! measures the neighbours more than the daemon. A child process
//! (`servbench --hold-cpus`) runs one spinner per CPU under the
//! `SCHED_IDLE` policy: such a thread runs only when nothing else is
//! runnable and is preempted as soon as anything wakes, so it takes no CPU
//! from the daemon or the load generator, but the CPU never halts. This is
//! the same conditioning as booting with `idle=poll`. Where the policy
//! cannot be set, no spinner runs.

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Child entry point: spins on every CPU until standard input closes.
pub fn hold() -> Result<(), String> {
    let stop = Arc::new(AtomicBool::new(false));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spinners: Vec<_> = (0..cpus)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                if let Err(e) = idle_policy() {
                    eprintln!("servbench: CPUs left to idle (SCHED_IDLE unavailable: {e})");
                    return;
                }
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    // Runs until the parent closes the pipe (or dies).
    let _ = io::stdin().read_to_end(&mut Vec::new());
    stop.store(true, Ordering::Relaxed);
    for s in spinners {
        s.join().map_err(|_| "spinner panicked")?;
    }
    Ok(())
}

#[cfg(target_os = "linux")]
fn idle_policy() -> io::Result<()> {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid, initialized `struct sched_param` that
    // outlives the call; pid 0 names the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn idle_policy() -> io::Result<()> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "not Linux"))
}

/// Parent-side handle on the spinner child; dropping it stops the child.
pub struct Holder(Child);

impl Holder {
    pub fn start() -> io::Result<Holder> {
        Command::new(std::env::current_exe()?)
            .arg("--hold-cpus")
            .stdin(Stdio::piped())
            .spawn()
            .map(Holder)
    }
}

impl Drop for Holder {
    fn drop(&mut self) {
        // Closing the pipe ends the child; wait so it is reaped.
        drop(self.0.stdin.take());
        let _ = self.0.wait();
    }
}
