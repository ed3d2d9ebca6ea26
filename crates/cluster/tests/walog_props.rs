//! Property tests for the lease WAL: under any coordinator-shaped
//! event history, any byte truncation of the log, and any trailing
//! garbage, `LeaseLog::open` still loads; the recovered state equals an
//! independent line-by-line replay of the surviving bytes (so a
//! recovering coordinator requeues exactly the unresulted jobs the
//! surviving prefix granted); and no truncation can fabricate a state
//! where two leases hold the same job (never double-grants).

use cluster::LeaseLog;
use jsonlite::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

type Leases = BTreeMap<String, Vec<(String, u64)>>;

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "walog-props-{tag}-{}-{}.jsonl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ))
}

/// An independent oracle for the load rule: parse line by line, stop at
/// the first unparseable or malformed event — the valid prefix is the
/// truth. Deliberately re-implemented here (not calling into `walog`)
/// so the two can disagree.
fn replay(bytes: &[u8]) -> (u64, Leases) {
    let mut epoch = 0u64;
    let mut leases: Leases = BTreeMap::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let (line, after) = match rest.iter().position(|b| *b == b'\n') {
            Some(end) => (&rest[..end], &rest[end + 1..]),
            None => (rest, &[][..]),
        };
        rest = after;
        let Ok(line) = std::str::from_utf8(line) else {
            // Invalid UTF-8 in the last line is a torn tail; with a
            // line after it the read fails and recovers to the empty
            // state.
            if rest.is_empty() {
                break;
            }
            return (0, BTreeMap::new());
        };
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = jsonlite::parse(line) else { break };
        let ev = v.get("ev").and_then(Value::as_str);
        let worker = || v.get("worker").and_then(Value::as_str);
        let jobs = |v: &Value| -> Option<Vec<(String, u64)>> {
            v.as_arr()?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().filter(|p| p.len() == 2)?;
                    Some((pair[0].as_str()?.to_string(), pair[1].as_u64()?))
                })
                .collect()
        };
        match ev {
            Some("epoch") => match v.get("n").and_then(Value::as_u64) {
                Some(n) => epoch = n,
                None => break,
            },
            Some("grant") => match (worker(), v.get("jobs").and_then(&jobs)) {
                (Some(w), Some(j)) => {
                    leases.insert(w.to_string(), j);
                }
                _ => break,
            },
            Some("extend") => {
                if worker().is_none() {
                    break;
                }
            }
            Some("expire") | Some("supersede") => match worker() {
                Some(w) => {
                    leases.remove(w);
                }
                None => break,
            },
            Some("result") => match (
                v.get("campaign").and_then(Value::as_str),
                v.get("point").and_then(Value::as_u64),
            ) {
                (Some(c), Some(p)) => {
                    for j in leases.values_mut() {
                        j.retain(|(jc, jp)| !(jc == c && *jp == p));
                    }
                    leases.retain(|_, j| !j.is_empty());
                }
                _ => break,
            },
            Some("snapshot") => {
                let (Some(n), Some(entries)) = (
                    v.get("epoch").and_then(Value::as_u64),
                    v.get("leases").and_then(Value::as_arr),
                ) else {
                    break;
                };
                let mut snap: Leases = BTreeMap::new();
                let mut ok = true;
                for e in entries {
                    match (
                        e.get("worker").and_then(Value::as_str),
                        e.get("jobs").and_then(&jobs),
                    ) {
                        (Some(w), Some(j)) => {
                            snap.insert(w.to_string(), j);
                        }
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    break;
                }
                epoch = n;
                leases = snap;
            }
            _ => break,
        }
    }
    (epoch, leases)
}

/// Drives a coordinator-shaped op sequence through a real `LeaseLog`,
/// mirroring the call discipline: a point is only granted while free
/// (never double-granted), supersede precedes a re-grant, results
/// retire points for good. Returns the mirror state the log should
/// recover to.
fn drive(log: &mut LeaseLog, ops: &[(u8, u8, u8)]) -> (u64, Leases) {
    const WORKERS: [&str; 3] = ["worker-000001", "worker-000002", "worker-000003"];
    let mut free: Vec<u64> = (0..16).collect();
    let mut epoch = 7u64;
    log.record_epoch(epoch).unwrap();
    for &(kind, wsel, psel) in ops {
        let worker = WORKERS[wsel as usize % WORKERS.len()];
        match kind % 5 {
            0 => {
                // Re-lease: supersede frees the old batch, the grant
                // takes fresh points.
                if let Some(old) = log.state().leases.get(worker).cloned() {
                    free.extend(old.iter().map(|(_, p)| *p));
                    log.record_supersede(worker).unwrap();
                }
                let n = (psel as usize % 3 + 1).min(free.len());
                let jobs: Vec<(String, u64)> = free
                    .drain(..n)
                    .map(|p| ("job-000001".to_string(), p))
                    .collect();
                if jobs.is_empty() {
                    continue;
                }
                log.record_grant(worker, &jobs).unwrap();
            }
            1 => {
                if let Some(old) = log.state().leases.get(worker).cloned() {
                    free.extend(old.iter().map(|(_, p)| *p));
                }
                log.record_expire(worker).unwrap();
            }
            2 => {
                // Result one of the worker's leased points: retired,
                // never back in the pool.
                let Some(&(_, point)) = log
                    .state()
                    .leases
                    .get(worker)
                    .and_then(|j| j.get(psel as usize % j.len().max(1)))
                else {
                    continue;
                };
                log.record_result("job-000001", point).unwrap();
            }
            3 => log.record_extend(worker).unwrap(),
            _ => {
                epoch += 1;
                log.record_epoch(epoch).unwrap();
            }
        }
    }
    (log.state().epoch, log.state().leases.clone())
}

fn assert_no_double_grant(leases: &Leases) {
    let mut seen = std::collections::BTreeSet::new();
    for (worker, jobs) in leases {
        for job in jobs {
            assert!(
                seen.insert(job.clone()),
                "job {job:?} held by two leases (one of them {worker})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_truncation_or_garbage_recovers_the_surviving_prefix(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..48),
        cut in any::<u16>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let expected = {
            let mut log = LeaseLog::open(&path).unwrap();
            drive(&mut log, &ops)
        };
        let bytes = std::fs::read(&path).unwrap();

        // Round trip: reopening the intact log recovers the mirror
        // exactly, and the mirror never double-grants.
        {
            let log = LeaseLog::open(&path).unwrap();
            prop_assert_eq!(log.state().epoch, expected.0);
            prop_assert_eq!(&log.state().leases, &expected.1);
            assert_no_double_grant(&log.state().leases);
        }

        // Torn tail: cut the original event bytes anywhere. The
        // surviving prefix is a state some crash could have left, so
        // it must load, match the oracle replay, and still never hold
        // a job twice.
        let cut = cut as usize % (bytes.len() + 1);
        let torn = &bytes[..cut];
        let torn_path = temp_path("cut");
        std::fs::write(&torn_path, torn).unwrap();
        {
            let log = LeaseLog::open(&torn_path).unwrap();
            let (epoch, leases) = replay(torn);
            prop_assert_eq!(log.state().epoch, epoch);
            prop_assert_eq!(&log.state().leases, &leases);
            assert_no_double_grant(&log.state().leases);
        }

        // Crash garbage: arbitrary bytes after the cut. Still loads;
        // still agrees with the oracle on the exact same bytes.
        let mut garbled = torn.to_vec();
        garbled.extend_from_slice(&garbage);
        std::fs::write(&torn_path, &garbled).unwrap();
        {
            let log = LeaseLog::open(&torn_path).unwrap();
            let (epoch, leases) = replay(&garbled);
            prop_assert_eq!(log.state().epoch, epoch);
            prop_assert_eq!(&log.state().leases, &leases);
        }

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&torn_path);
    }
}
