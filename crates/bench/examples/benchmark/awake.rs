//! Keeps every core out of the idle loop while a workload is set up and
//! measured, so that waking a thread costs the same on every run.
//!
//! The sizing host is a 2-vCPU microVM on a shared hypervisor, and its idle
//! loop is `HLT`: a halted vCPU has to be scheduled by the host again before
//! a woken thread can run on it, and what that costs swings with the
//! neighbours for minutes at a time. The serving workloads wake a thread at
//! every hop, and the open loop turns each late wake-up into a queue. Ten
//! runs of `rpc_open` alternating with and without this module, same weather:
//! `p50_ms` spread (interquartile range ÷ median) 22.1 % without, 8.2 % with;
//! `tail_ms` 23.5 % → 9.2 %; `rpc_solo` `p50_ms` 3.6 % → 2.6 %.
//!
//! One thread per core spins under `SCHED_IDLE`. That policy only ever gets
//! cycles nothing else wants, a waking thread preempts it at once, and the
//! scheduler places woken threads as if a core that runs nothing else were
//! idle — so the program under test loses no CPU to the spinners (five runs
//! each way of the compute-bound workloads: `rpc_sat` 34.0 against 34.4 ms,
//! `scc_infer` 40.1 against 40.4 ms, `scc_train` 84.1 against 85.6 ms, inside
//! their own spreads). Where the policy cannot be set, nothing spins and the
//! run is flagged.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// The spinning threads; [`KeepAwake::stop`] ends and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one `SCHED_IDLE` spinner per core. An error means none spins.
    pub fn start() -> Result<KeepAwake, String> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, outcome) = mpsc::channel();
        let threads: Vec<_> = (0..cores)
            .map(|_| {
                let (stop, ready) = (stop.clone(), ready.clone());
                std::thread::spawn(move || {
                    let demoted = demote_this_thread();
                    let spin = demoted.is_ok();
                    ready.send(demoted).expect("the starter waits for this");
                    // A flag and nothing else: no data is published through it.
                    while spin && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let awake = KeepAwake { stop, threads };
        let failure = (0..cores).find_map(|_| outcome.recv().ok()?.err());
        match failure {
            None => Ok(awake),
            Some(why) => {
                awake.stop();
                Err(why)
            }
        }
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads {
            thread.join().expect("a spinner thread panicked");
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`.
#[cfg(target_os = "linux")]
fn demote_this_thread() -> Result<(), String> {
    /// `struct sched_param` of `<sched.h>`.
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` is libc's, which std links; the signature
    // matches <sched.h> on Linux (`pid_t` and `int` are `i32`), `param`
    // points to a live, correctly laid-out `sched_param`, and the call only
    // reads it. Pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setscheduler(SCHED_IDLE): {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
fn demote_this_thread() -> Result<(), String> {
    Err("SCHED_IDLE is Linux's".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_and_stop() {
        // Under SCHED_IDLE they spin until told to stop; where the policy is
        // refused they never spin. Either way `stop` returns.
        match KeepAwake::start() {
            Ok(awake) => awake.stop(),
            Err(why) => assert!(!why.is_empty()),
        }
    }
}
