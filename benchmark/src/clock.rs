//! CPU clocks: of this process, of the calling thread, and of another
//! process.
//!
//! Timed ops are measured on these as well as on the wall clock. The
//! kernel brings a running task's CPU time up to date when such a clock is
//! read (a `/proc/<pid>/schedstat` read can lag by a scheduler tick), and
//! on a virtual machine with steal-time accounting it leaves out the time
//! the hypervisor gave to other guests, which on a shared host arrives in
//! multi-millisecond chunks and moves wall-time tails from run to run.

use std::ffi::c_long;

/// `struct timespec` of the C library on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

/// Reads `clock`, in seconds.
fn read(clock: i32) -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, which is all `clock_gettime` requires.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!(
            "clock_gettime({clock}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU time of this process since it was forked, in seconds.
pub fn process_seconds() -> Result<f64, String> {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in seconds.
pub fn thread_seconds() -> Result<f64, String> {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPU clock of process `pid`.
#[derive(Debug, Clone, Copy)]
pub struct ProcessClock(i32);

impl ProcessClock {
    /// Looks up the CPU clock of process `pid`.
    pub fn of(pid: u32) -> Result<Self, String> {
        let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
        let mut clock = 0;
        // SAFETY: `clock` is a valid, writable `clockid_t` (an `int` on
        // Linux) for the duration of the call.
        let err = unsafe { clock_getcpuclockid(pid, &mut clock) };
        if err != 0 {
            return Err(format!(
                "no CPU clock for process {pid}: {}",
                std::io::Error::from_raw_os_error(err)
            ));
        }
        Ok(ProcessClock(clock))
    }

    /// CPU time of the process so far, in seconds.
    pub fn seconds(self) -> Result<f64, String> {
        read(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_advances_with_work_and_not_with_sleep() {
        let start = thread_seconds().expect("thread clock");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let worked = thread_seconds().expect("thread clock");
        assert!(worked > start, "{x}");
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_seconds().expect("thread clock") - worked;
        assert!(slept < 0.025, "sleeping used {slept} s of CPU");
        let own = ProcessClock::of(std::process::id()).expect("process clock");
        assert!(own.seconds().expect("process clock") >= worked - start);
    }
}
