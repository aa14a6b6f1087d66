//! `ddcr serve` — long-running online admission control over JSONL.
//!
//! Reads one JSON object per line on stdin, applies it to a live
//! [`Membership`], and streams one JSON decision line per request on
//! stdout. The session protocol (see `docs/ADMISSION.md`):
//!
//! ```text
//! {"op":"join","station":0}
//! {"op":"leave","station":0}
//! {"op":"flow","station":0,"name":"telemetry","bits":8000,
//!  "deadline":5000000,"arrivals":1,"window":1000000}
//! {"op":"force-flow", ...same fields...}      operator override
//! {"op":"status"}
//! ```
//!
//! Every line gets exactly one reply; malformed input yields an
//! `{"ok":false,...}` line, never a crash — the whole input path is
//! panic-free by construction (hand-rolled field extraction, typed errors
//! end to end). At EOF a summary line is emitted and the process exits
//! non-zero iff a safety violation occurred (an operator override broke
//! the feasible-set invariant, or the invariant check itself failed).
//!
//! The reply stream is a pure function of the input stream and the
//! options: replaying a session is byte-identical (pinned in CI by the
//! `serve-smoke` job).

use ddcr_core::{AdmissionDecision, DdcrConfig, FlowRequest, Membership};
use ddcr_sim::{MediumConfig, SourceId, Ticks};
use std::io::{BufRead, Write};

/// Configuration of one serve session.
#[derive(Debug, Clone)]
pub struct Options {
    /// Attachment points `z`.
    pub sources: u32,
    /// Shared-medium timing.
    pub medium: MediumConfig,
    /// Deadline-class width `c` in ticks.
    pub class_width: Ticks,
    /// Static leaves granted per join.
    pub join_nu: u64,
    /// Parallel channels the admission predicate shards over (1 = the
    /// single shared medium of §4.3).
    pub channels: usize,
}

/// Extracts the raw value of `"key"` from a flat JSON object line.
///
/// Deliberately minimal (the serve protocol is flat objects with number
/// and plain-string values, no escapes or nesting) and panic-free: any
/// shape it does not understand is simply `None`, which the caller reports
/// as a malformed request.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let mut rest = line;
    loop {
        let at = rest.find(&pat)?;
        let after = &rest[at + pat.len()..];
        let trimmed = after.trim_start();
        if let Some(value) = trimmed.strip_prefix(':') {
            let value = value.trim_start();
            return if let Some(s) = value.strip_prefix('"') {
                s.find('"').map(|end| &s[..end])
            } else {
                let end = value
                    .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
                    .unwrap_or(value.len());
                Some(value[..end].trim())
            };
        }
        // The match was a value, not a key (e.g. a name containing the
        // pattern); keep scanning.
        rest = after;
    }
}

fn field_u64(line: &str, key: &str) -> Result<u64, String> {
    field(line, key)
        .ok_or_else(|| format!("missing field \"{key}\""))?
        .parse()
        .map_err(|_| format!("field \"{key}\" is not a non-negative integer"))
}

fn field_u32(line: &str, key: &str) -> Result<u32, String> {
    field(line, key)
        .ok_or_else(|| format!("missing field \"{key}\""))?
        .parse()
        .map_err(|_| format!("field \"{key}\" is not a station index"))
}

/// JSON string escaping for the tiny subset our error messages need.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn leaves_json(leaves: &[u64]) -> String {
    let items: Vec<String> = leaves.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn flow_request(line: &str) -> Result<FlowRequest, String> {
    Ok(FlowRequest {
        source: SourceId(field_u32(line, "station")?),
        name: field(line, "name").unwrap_or("flow").to_owned(),
        bits: field_u64(line, "bits")?,
        deadline: Ticks(field_u64(line, "deadline")?),
        arrivals: field_u64(line, "arrivals")?,
        window: Ticks(field_u64(line, "window")?),
    })
}

fn decision_json(op: &str, decision: &AdmissionDecision, forced: bool) -> String {
    let forced_part = if forced { ",\"forced\":true" } else { "" };
    match decision {
        AdmissionDecision::Admitted {
            class,
            bound,
            slack,
        } => format!(
            "{{\"ok\":true,\"op\":\"{op}\",\"decision\":\"admit\",\"class\":{},\
             \"bound\":{bound:.3},\"slack\":{slack:.3}{forced_part}}}",
            class.0
        ),
        AdmissionDecision::Rejected { binding } => format!(
            "{{\"ok\":true,\"op\":\"{op}\",\"decision\":\"reject\",\
             \"binding_class\":{},\"bound\":{:.3},\"deadline\":{},\
             \"slack\":{:.3},\"term\":{}{forced_part}}}",
            binding.class.0,
            binding.bound,
            binding.deadline.as_u64(),
            binding.slack(),
            json_str(binding.dominant_term()),
        ),
        // `AdmissionDecision` is non-exhaustive upstream; an unknown
        // variant still gets a deterministic reply.
        _ => format!("{{\"ok\":true,\"op\":\"{op}\",\"decision\":\"unknown\"{forced_part}}}"),
    }
}

fn process_line(membership: &mut Membership, opts: &Options, line: &str) -> String {
    let op = match field(line, "op") {
        Some(op) => op,
        None => return "{\"ok\":false,\"error\":\"missing field \\\"op\\\"\"}".to_owned(),
    };
    let result: Result<String, String> = match op {
        "join" => field_u32(line, "station").and_then(|s| {
            membership
                .join(SourceId(s))
                .map(|r| {
                    format!(
                        "{{\"ok\":true,\"op\":\"join\",\"station\":{s},\"leaves\":{}}}",
                        leaves_json(&r.leaves)
                    )
                })
                .map_err(|e| e.to_string())
        }),
        "leave" => field_u32(line, "station").and_then(|s| {
            membership
                .leave(SourceId(s))
                .map(|r| {
                    let dropped: Vec<u64> =
                        r.dropped_flows.iter().map(|c| u64::from(c.0)).collect();
                    format!(
                        "{{\"ok\":true,\"op\":\"leave\",\"station\":{s},\
                         \"reclaimed\":{},\"dropped\":{}}}",
                        leaves_json(&r.leaves),
                        leaves_json(&dropped)
                    )
                })
                .map_err(|e| e.to_string())
        }),
        "flow" | "force-flow" => flow_request(line).and_then(|flow| {
            let forced = op == "force-flow";
            let decision = if forced {
                membership.force_admit(&flow).map_err(|e| e.to_string())?
            } else if opts.channels > 1 {
                let (decision, _budgets) = membership
                    .admit_multichannel(&flow, opts.channels)
                    .map_err(|e| e.to_string())?;
                decision
            } else {
                membership.admit(&flow).map_err(|e| e.to_string())?
            };
            Ok(decision_json(op, &decision, forced))
        }),
        "status" => Ok(format!(
            "{{\"ok\":true,\"op\":\"status\",\"members\":{},\"flows\":{},\
             \"free_leaves\":{},\"violations\":{}}}",
            membership.present_count(),
            membership.admitted().len(),
            membership.allocation().free_leaves().len(),
            membership.safety_violations()
        )),
        other => Err(format!("unknown op \"{other}\"")),
    };
    match result {
        Ok(reply) => reply,
        Err(e) => format!(
            "{{\"ok\":false,\"op\":{},\"error\":{}}}",
            json_str(op),
            json_str(&e)
        ),
    }
}

/// Runs one serve session: processes `input` line by line, writing one
/// reply line each plus a final summary. Returns whether the session ended
/// *safe* (no invariant breach, no operator-forced violation).
///
/// # Errors
///
/// Returns a message on configuration or I/O failure; request-level
/// problems are reported in-band as `{"ok":false,...}` lines.
pub fn run_session<R: BufRead, W: Write>(
    input: R,
    out: &mut W,
    opts: &Options,
) -> Result<bool, String> {
    let config =
        DdcrConfig::for_sources(opts.sources, opts.class_width).map_err(|e| e.to_string())?;
    let mut membership = Membership::new(config, opts.medium, opts.sources, opts.join_nu)
        .map_err(|e| e.to_string())?;
    for line in input.lines() {
        let line = line.map_err(|e| format!("stdin read failed: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let reply = process_line(&mut membership, opts, trimmed);
        writeln!(out, "{reply}").map_err(|e| format!("stdout write failed: {e}"))?;
    }
    let invariant = membership.check_invariants();
    let safe = membership.safety_violations() == 0 && invariant.is_ok();
    let detail = match &invariant {
        Ok(()) => String::new(),
        Err(e) => format!(",\"invariant_error\":{}", json_str(&e.to_string())),
    };
    writeln!(
        out,
        "{{\"summary\":true,\"members\":{},\"flows\":{},\"violations\":{},\
         \"safe\":{safe}{detail}}}",
        membership.present_count(),
        membership.admitted().len(),
        membership.safety_violations()
    )
    .map_err(|e| format!("stdout write failed: {e}"))?;
    Ok(safe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Options {
        Options {
            sources: 4,
            medium: MediumConfig::ethernet(),
            class_width: Ticks(100_000),
            join_nu: 1,
            channels: 1,
        }
    }

    fn run(script: &str, opts: &Options) -> (String, bool) {
        let mut out = Vec::new();
        let safe = run_session(script.as_bytes(), &mut out, opts).unwrap();
        (String::from_utf8(out).unwrap(), safe)
    }

    #[test]
    fn field_extraction_handles_the_protocol_subset() {
        let line = r#"{"op":"flow","station":2,"name":"a b","bits": 8000 ,"window":10}"#;
        assert_eq!(field(line, "op"), Some("flow"));
        assert_eq!(field(line, "station"), Some("2"));
        assert_eq!(field(line, "name"), Some("a b"));
        assert_eq!(field(line, "bits"), Some("8000"));
        assert_eq!(field(line, "window"), Some("10"));
        assert_eq!(field(line, "absent"), None);
        // A value that happens to contain a key pattern is skipped over.
        let tricky = r#"{"name":"\"op\" is not here","op":"join"}"#;
        assert_eq!(field(tricky, "op"), Some("join"));
    }

    #[test]
    fn clean_session_is_safe_and_replies_per_line() {
        let script = "\
{\"op\":\"join\",\"station\":0}\n\
{\"op\":\"flow\",\"station\":0,\"name\":\"t\",\"bits\":8000,\"deadline\":50000000,\"arrivals\":1,\"window\":10000000}\n\
{\"op\":\"status\"}\n\
{\"op\":\"leave\",\"station\":0}\n";
        let (out, safe) = run(script, &opts());
        assert!(safe);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "4 replies + summary: {out}");
        assert!(lines[0].contains("\"op\":\"join\"") && lines[0].contains("\"leaves\":[0]"));
        assert!(lines[1].contains("\"decision\":\"admit\""));
        assert!(lines[2].contains("\"flows\":1"));
        assert!(lines[3].contains("\"dropped\":[0]"));
        assert!(lines[4].contains("\"safe\":true"));
    }

    #[test]
    fn rejection_cites_the_violated_term() {
        let script = "\
{\"op\":\"join\",\"station\":0}\n\
{\"op\":\"flow\",\"station\":0,\"name\":\"hog\",\"bits\":8000,\"deadline\":500000,\"arrivals\":1000,\"window\":100000}\n";
        let (out, safe) = run(script, &opts());
        assert!(safe, "a rejection is safe — the flow was refused");
        let reject = out.lines().nth(1).unwrap();
        assert!(reject.contains("\"decision\":\"reject\""), "{reject}");
        assert!(reject.contains("\"term\":\""), "{reject}");
        assert!(reject.contains("\"slack\":-"), "{reject}");
    }

    #[test]
    fn forced_violation_marks_the_session_unsafe() {
        let script = "\
{\"op\":\"join\",\"station\":0}\n\
{\"op\":\"force-flow\",\"station\":0,\"name\":\"hog\",\"bits\":8000,\"deadline\":500000,\"arrivals\":1000,\"window\":100000}\n";
        let (out, safe) = run(script, &opts());
        assert!(!safe);
        assert!(out.contains("\"forced\":true"));
        assert!(out.contains("\"violations\":1"));
        assert!(out.contains("\"safe\":false"));
    }

    #[test]
    fn malformed_lines_get_error_replies_not_crashes() {
        let script = "\
not json at all\n\
{\"op\":\"warp\",\"station\":0}\n\
{\"op\":\"join\"}\n\
{\"op\":\"join\",\"station\":99}\n\
{\"op\":\"flow\",\"station\":0}\n\
\n\
{\"op\":\"join\",\"station\":1}\n";
        let (out, safe) = run(script, &opts());
        assert!(safe);
        let lines: Vec<&str> = out.lines().collect();
        // 6 non-empty inputs → 6 replies + summary.
        assert_eq!(lines.len(), 7, "{out}");
        for bad in &lines[..5] {
            assert!(bad.contains("\"ok\":false"), "{bad}");
        }
        assert!(lines[5].contains("\"ok\":true"));
    }

    #[test]
    fn overflowing_flow_is_refused_and_changes_nothing() {
        // Its transmission term is 2^64 ticks on Ethernet (l' = 2^63, two
        // arrivals per window). Unchecked, the sum wrapped and the flow was
        // admitted with a bound of 8704 ticks against a 2^63 deadline.
        let wrap = "{\"op\":\"flow\",\"station\":0,\"name\":\"wrap\",\
\"bits\":9223372036854775600,\"deadline\":9223372036854775808,\
\"arrivals\":1,\"window\":4611686018427387904}";
        let script = format!(
            "{{\"op\":\"join\",\"station\":0}}\n{wrap}\n{{\"op\":\"status\"}}\n\
             {{\"op\":\"flow\",\"station\":0,\"name\":\"t\",\"bits\":8000,\
             \"deadline\":50000000,\"arrivals\":1,\"window\":10000000}}\n"
        );
        let (out, safe) = run(&script, &opts());
        assert!(safe, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert!(
            lines[1].starts_with("{\"ok\":false,\"op\":\"flow\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("overflows u64"), "{}", lines[1]);
        assert!(lines[2].contains("\"flows\":0"), "{}", lines[2]);
        // The refused request took no class id.
        assert!(
            lines[3].contains("\"decision\":\"admit\",\"class\":0"),
            "{}",
            lines[3]
        );
        assert!(lines[4].contains("\"flows\":1") && lines[4].contains("\"safe\":true"));
        assert_eq!(
            run(&script, &opts()).0,
            out,
            "replay must be byte-identical"
        );
    }

    #[test]
    fn replay_is_byte_identical() {
        let script = "\
{\"op\":\"join\",\"station\":0}\n\
{\"op\":\"join\",\"station\":1}\n\
{\"op\":\"flow\",\"station\":0,\"name\":\"a\",\"bits\":8000,\"deadline\":50000000,\"arrivals\":1,\"window\":10000000}\n\
{\"op\":\"leave\",\"station\":0}\n\
{\"op\":\"join\",\"station\":2}\n\
{\"op\":\"status\"}\n";
        let (a, _) = run(script, &opts());
        let (b, _) = run(script, &opts());
        assert_eq!(a, b);
    }

    #[test]
    fn multichannel_predicate_runs() {
        let mut o = opts();
        o.channels = 4;
        let script = "\
{\"op\":\"join\",\"station\":0}\n\
{\"op\":\"flow\",\"station\":0,\"name\":\"t\",\"bits\":8000,\"deadline\":50000000,\"arrivals\":1,\"window\":10000000}\n";
        let (out, safe) = run(script, &o);
        assert!(safe);
        assert!(out.contains("\"decision\":\"admit\""), "{out}");
    }
}
