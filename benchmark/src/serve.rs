//! The `ddcr serve` workload: a seeded request log, a client driving a
//! spawned `ddcr serve` child over its JSONL stdin/stdout, and an
//! in-process [`Membership`] replica the replies are checked against.

use crate::clock::ProcessClock;
use crate::stats::Fnv;
use crate::workload::MS;
use ddcr_core::{AdmissionDecision, DdcrConfig, FlowRequest, Membership};
use ddcr_sim::rng::derive_seed;
use ddcr_sim::{MediumConfig, SourceId, Ticks};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `ddcr serve`'s default deadline-class width.
pub const CLASS_WIDTH: Ticks = Ticks(100_000);

/// How long [`ServeChild::cpu_seconds`] waits for the child to block on
/// its next read.
const IDLE_WAIT: Duration = Duration::from_secs(5);

/// One request of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `{"op":"join","station":s}`.
    Join(u32),
    /// `{"op":"leave","station":s}`.
    Leave(u32),
    /// `{"op":"flow",...}`.
    Flow(FlowRequest),
}

impl Request {
    /// The JSONL line `ddcr serve` reads.
    pub fn line(&self) -> String {
        match self {
            Request::Join(s) => format!("{{\"op\":\"join\",\"station\":{s}}}"),
            Request::Leave(s) => format!("{{\"op\":\"leave\",\"station\":{s}}}"),
            Request::Flow(f) => format!(
                "{{\"op\":\"flow\",\"station\":{},\"name\":\"{}\",\"bits\":{},\"deadline\":{},\
                 \"arrivals\":{},\"window\":{}}}",
                f.source.0,
                f.name,
                f.bits,
                f.deadline.as_u64(),
                f.arrivals,
                f.window.as_u64()
            ),
        }
    }
}

/// The seeded, unbounded churn log: every station joins first, then each
/// request is a flow (85 %) or a membership flip of a uniformly drawn
/// station (15 %: a leave if it is present, a rejoin if not), so about
/// half the stations stay present. Flows come only from present stations,
/// so no request is malformed. With 64 sources about 160 flows stay
/// admitted and a little over half of all flows are rejected.
#[derive(Debug, Clone)]
pub struct LogGen {
    seed: u64,
    draws: u64,
    present: Vec<bool>,
    emitted: u64,
}

impl LogGen {
    /// A log over `sources` stations.
    pub fn new(seed: u64, sources: u32) -> Self {
        LogGen {
            seed,
            draws: 0,
            present: vec![false; sources as usize],
            emitted: 0,
        }
    }

    fn draw(&mut self, below: u64) -> u64 {
        self.draws += 1;
        derive_seed(self.seed, self.draws) % below
    }

    fn station(&mut self) -> u32 {
        self.draw(self.present.len() as u64) as u32
    }

    fn flip(&mut self, station: u32) -> Request {
        let slot = &mut self.present[station as usize];
        *slot = !*slot;
        if *slot {
            Request::Join(station)
        } else {
            Request::Leave(station)
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let index = self.emitted;
        self.emitted += 1;
        let sources = self.present.len() as u64;
        if index < sources {
            return self.flip(index as u32);
        }
        if self.draw(100) >= 85 {
            let station = self.station();
            return self.flip(station);
        }
        let present: Vec<u32> = (0..sources as u32)
            .filter(|&s| self.present[s as usize])
            .collect();
        if present.is_empty() {
            let station = self.station();
            return self.flip(station);
        }
        let source = present[self.draw(present.len() as u64) as usize];
        // One of four shapes, scaled together. With sizes and deadlines
        // drawn from wide ranges, the admitted set's make-up drifts over
        // tens of thousands of requests, so its size, and the cost of every
        // admission, would depend on the seed.
        let k = 1 + self.draw(4);
        Request::Flow(FlowRequest {
            source: SourceId(source),
            name: format!("f{index}"),
            bits: 4_096 * k,
            deadline: Ticks(2 * k * MS),
            arrivals: 1,
            window: Ticks(10 * k * MS),
        })
    }
}

/// What a reply must contain, from the in-process replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Substrings the reply line must contain.
    pub fragments: Vec<String>,
    /// Whether the request was a flow the predicate refused.
    pub rejected: bool,
}

fn leaves_json(leaves: &[u64]) -> String {
    let items: Vec<String> = leaves.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// An in-process twin of a `ddcr serve --sources Z` session.
#[derive(Debug)]
pub struct Replica {
    /// The live membership the session drives.
    pub membership: Membership,
}

impl Replica {
    /// The state `ddcr serve --sources sources` starts from.
    pub fn new(sources: u32) -> Result<Self, String> {
        let config = DdcrConfig::for_sources(sources, CLASS_WIDTH).map_err(|e| e.to_string())?;
        let membership = Membership::new(config, MediumConfig::ethernet(), sources, 1)
            .map_err(|e| e.to_string())?;
        Ok(Replica { membership })
    }

    /// Applies one request and returns what `ddcr serve` must reply.
    pub fn apply(&mut self, request: &Request) -> Result<Expected, String> {
        let m = &mut self.membership;
        let (fragments, rejected) = match request {
            Request::Join(s) => {
                let receipt = m.join(SourceId(*s)).map_err(|e| e.to_string())?;
                (
                    vec![format!(
                        "\"op\":\"join\",\"station\":{s},\"leaves\":{}",
                        leaves_json(&receipt.leaves)
                    )],
                    false,
                )
            }
            Request::Leave(s) => {
                let receipt = m.leave(SourceId(*s)).map_err(|e| e.to_string())?;
                let dropped: Vec<u64> = receipt
                    .dropped_flows
                    .iter()
                    .map(|c| u64::from(c.0))
                    .collect();
                (
                    vec![format!(
                        "\"op\":\"leave\",\"station\":{s},\"reclaimed\":{},\"dropped\":{}",
                        leaves_json(&receipt.leaves),
                        leaves_json(&dropped)
                    )],
                    false,
                )
            }
            Request::Flow(flow) => match m.admit(flow).map_err(|e| e.to_string())? {
                AdmissionDecision::Admitted { class, .. } => (
                    vec![format!(
                        "\"op\":\"flow\",\"decision\":\"admit\",\"class\":{}",
                        class.0
                    )],
                    false,
                ),
                AdmissionDecision::Rejected { binding } => (
                    vec![format!(
                        "\"op\":\"flow\",\"decision\":\"reject\",\"binding_class\":{}",
                        binding.class.0
                    )],
                    true,
                ),
                other => return Err(format!("unexpected admission decision {other:?}")),
            },
        };
        Ok(Expected {
            fragments,
            rejected,
        })
    }
}

/// Checks one reply line against the replica's expectation.
pub fn check_reply(reply: &str, expected: &Expected) -> Result<(), String> {
    if !reply.starts_with("{\"ok\":true,") {
        return Err(format!("reply is not ok: {reply}"));
    }
    match expected
        .fragments
        .iter()
        .find(|f| !reply.contains(f.as_str()))
    {
        Some(missing) => Err(format!("reply {reply} lacks {missing}")),
        None => Ok(()),
    }
}

/// Running FNV-1a over reply lines, one newline-terminated line at a time.
pub fn digest_reply(h: &mut Fnv, reply: &str) {
    h.bytes(reply.as_bytes());
    h.bytes(b"\n");
}

/// The state field of a `/proc/<pid>/stat` line, `pid (comm) state ...`;
/// the command name may hold spaces and parentheses.
fn proc_state(stat: &str) -> Option<&str> {
    stat.rfind(')')
        .and_then(|end| stat[end + 1..].split_whitespace().next())
}

/// A spawned `ddcr serve` child with its stdin and stdout held open.
#[derive(Debug)]
pub struct ServeChild {
    child: Child,
    clock: ProcessClock,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl ServeChild {
    /// Spawns `ddcr serve --sources sources`.
    pub fn spawn(ddcr: &Path, sources: u32) -> Result<Self, String> {
        let mut child = Command::new(ddcr)
            .args(["serve", "--sources", &sources.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ddcr.display()))?;
        let stdin = child.stdin.take().ok_or("serve child has no stdin")?;
        let stdout = child.stdout.take().ok_or("serve child has no stdout")?;
        Ok(ServeChild {
            clock: ProcessClock::of(child.id())?,
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
            line: String::new(),
        })
    }

    /// Sends one request line and returns its reply line (without the
    /// newline).
    pub fn request(&mut self, line: &str) -> Result<&str, String> {
        let stdin = self.stdin.as_mut().ok_or("serve child stdin is closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to serve child: {e}"))?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.stdout.read_line(&mut self.line) {
            Ok(0) => Err("serve child closed its stdout".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("reading from serve child: {e}")),
        }
    }

    /// CPU time the child has run so far, in seconds, read once it has gone
    /// back to waiting for its next request.
    ///
    /// The kernel brings another process's CPU clock up to date only when
    /// that process is switched out or a scheduler tick lands on it. Right
    /// after a reply arrives the child is usually still running on another
    /// core, and when the next request reaches it before it blocks, it
    /// serves that one without being switched out at all. Read at once, the
    /// clock then charges a request's time to a later one (many cheap
    /// requests read zero), which leaves the sum right but skews every
    /// percentile with how the host schedules the two processes.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let started = Instant::now();
        loop {
            let stat =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            match proc_state(&stat) {
                Some("S") => return self.clock.seconds(),
                Some(_) if started.elapsed() < IDLE_WAIT => std::thread::yield_now(),
                _ => return Err(format!("serve child did not go idle: {}", stat.trim_end())),
            }
        }
    }

    /// The child's peak resident set, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Closes stdin, reads the summary line and waits for the child to
    /// exit; a non-zero exit is an error.
    pub fn finish(mut self) -> Result<String, String> {
        drop(self.stdin.take());
        let summary = self.read_line()?.to_owned();
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for serve child: {e}"))?;
        if !status.success() {
            return Err(format!("ddcr serve exited with {status}: {summary}"));
        }
        Ok(summary)
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        // On an error path: make sure the child is not left running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_deterministic_and_well_formed() {
        let mut a = LogGen::new(11, 8);
        let mut b = LogGen::new(11, 8);
        let mut other = LogGen::new(12, 8);
        let first: Vec<Request> = (0..500).map(|_| a.next_request()).collect();
        let again: Vec<Request> = (0..500).map(|_| b.next_request()).collect();
        let different: Vec<Request> = (0..500).map(|_| other.next_request()).collect();
        assert_eq!(first, again);
        assert_ne!(first, different);
        // Every station joins first, and the replica accepts every request
        // the log produces: no line is malformed.
        assert!(first[..8].iter().all(|r| matches!(r, Request::Join(_))));
        let mut replica = Replica::new(8).expect("replica");
        let mut flows = 0;
        for request in &first {
            replica.apply(request).expect("request is valid");
            flows += usize::from(matches!(request, Request::Flow(_)));
        }
        assert!((350..=470).contains(&flows), "{flows} flows in 500");
    }

    #[test]
    fn replies_are_checked_field_by_field() {
        let expected = Expected {
            fragments: vec!["\"decision\":\"admit\",\"class\":3".into()],
            rejected: false,
        };
        let good = "{\"ok\":true,\"op\":\"flow\",\"decision\":\"admit\",\"class\":3,\"bound\":1.0}";
        assert!(check_reply(good, &expected).is_ok());
        assert!(check_reply(&good.replace("3,", "4,"), &expected).is_err());
        assert!(check_reply("{\"ok\":false,\"error\":\"x\"}", &expected).is_err());
    }

    #[test]
    fn process_state_is_read_past_the_command_name() {
        assert_eq!(proc_state("812 (ddcr) S 811 812 0"), Some("S"));
        assert_eq!(proc_state("812 (a (b) c) R 811 812 0"), Some("R"));
        assert_eq!(proc_state("812 (ddcr"), None);
        let own = std::fs::read_to_string("/proc/thread-self/stat").expect("own stat");
        assert_eq!(proc_state(&own), Some("R"));
    }
}
