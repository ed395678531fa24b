//! The ordered parallel executor behind every campaign and replay path.
//!
//! The campaign executor and the offline monitor replay both run on
//! one crate-private helper, `ordered_par_map(n, workers, cancel, work,
//! emit)`. It runs `work(k)` for every unit `k` in `0..n` on scoped
//! worker threads and hands each result to `emit(k, result)` on the
//! calling thread. A unit is whatever the caller makes it: a campaign
//! group (the jobs of one patient and initial BG, run as lockstep lanes
//! in banks of [`BATCH_LANES`](crate::batch::BATCH_LANES) that fork
//! where a job's fault first changes the loop), or a run of up to 32
//! consecutive recorded traces in a [replay](crate::replay). Every
//! caller therefore shares one contract:
//!
//! * **Order.** `emit` sees the units strictly in index order, `0, 1,
//!   2, …`, whatever order the workers finish them in. The output is
//!   the same at every worker count and equals a serial loop.
//! * **Bounded memory.** Workers claim units from one atomic counter,
//!   so load stays balanced however uneven the units are. No unit
//!   starts `4 × workers` or more past the emission frontier, and
//!   finished units queue in a channel of `2 × workers` slots that
//!   backpressures a slow `emit`. At most O(workers) unit results are
//!   in flight, never O(n), and one slow head-of-line unit cannot pull
//!   the rest of the run into the reorder buffer.
//! * **Cancellation.** A raised cancel flag stops new claims. Units
//!   already claimed still finish and emit, so the emitted units are
//!   always a prefix `0..k` of the run.
//! * **Abort.** The first error `emit` returns ends the run and is
//!   handed back; no later unit is emitted. A panic in `work` or
//!   `emit` likewise releases every worker and then propagates.
//!
//! With one worker, or at most one unit, everything runs inline on the
//! calling thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::Duration;

/// How long a worker parked at the run-ahead gate sleeps between
/// polls of the emission frontier.
const GATE_POLL: Duration = Duration::from_micros(100);

/// Raises the stop flag if dropped while its thread panics, so a
/// panicking worker or `emit` releases the workers parked at the gate
/// instead of leaving the scope waiting on them forever.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // sound: Release pairs with the gate's Acquire load of the
            // stop flag; the flag carries no data, it only ends polls.
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Whether the cancel flag is present and raised.
pub(crate) fn is_cancelled(cancel: Option<&AtomicBool>) -> bool {
    // sound: Acquire pairs with the canceller's Release store, so a
    // reader that sees the flag also sees what the canceller wrote
    // before raising it; a stale read only lets one more unit be
    // claimed or one more result be emitted, and both stay a prefix.
    cancel.is_some_and(|c| c.load(Ordering::Acquire))
}

/// Runs `work(k)` for each unit `k` in `0..n` on up to `workers`
/// threads and calls `emit(k, result)` on the calling thread in index
/// order, under the ordering, bounded-memory, cancellation and abort
/// contract in the [module docs](self).
///
/// Returns how many units were emitted: `n`, or fewer when `cancel`
/// was raised.
///
/// # Errors
///
/// The first error `emit` returns. Exactly the units before it have
/// been emitted.
pub(crate) fn ordered_par_map<T: Send, E>(
    n: usize,
    workers: usize,
    cancel: Option<&AtomicBool>,
    work: impl Fn(usize) -> T + Sync,
    mut emit: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<usize, E> {
    let cancelled = || is_cancelled(cancel);
    let workers = workers.min(n);
    if workers <= 1 {
        for k in 0..n {
            if cancelled() {
                return Ok(k);
            }
            emit(k, work(k))?;
        }
        return Ok(n);
    }

    let next = AtomicUsize::new(0);
    let frontier = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let max_ahead = 4 * workers;
    let (tx, rx) = sync_channel::<(usize, T)>(2 * workers);
    let mut emitted = 0usize;
    let mut result = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, frontier, stop) = (&next, &frontier, &stop);
            let (work, cancelled) = (&work, &cancelled);
            scope.spawn(move || {
                let _guard = StopOnPanic(stop);
                while !cancelled() {
                    // sound: Relaxed suffices for the claim counter —
                    // fetch_add is an atomic RMW, so every claim is
                    // unique and claims are monotone whatever the
                    // ordering; results are published by the channel
                    // send, not by this counter.
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        return;
                    }
                    // The run-ahead gate. The unit at the frontier always
                    // passes, so the frontier keeps moving and every
                    // parked worker eventually wakes. A parked worker
                    // does not re-check `cancel`: a claimed unit must
                    // finish or the frontier jams.
                    loop {
                        // sound: Acquire pairs with the Release stores
                        // of the stop flag; a stale read costs one poll.
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        // sound: Acquire pairs with the drain's Release
                        // store; a stale (smaller) frontier only parks
                        // one extra poll, it never admits k early.
                        if k < frontier.load(Ordering::Acquire) + max_ahead {
                            break;
                        }
                        std::thread::sleep(GATE_POLL);
                    }
                    if tx.send((k, work(k))).is_err() {
                        return; // the drain has stopped: abandon quietly
                    }
                }
            });
        }
        // The workers own every sender through their clones, so the
        // stream ends once the last of them exits.
        drop(tx);

        let _guard = StopOnPanic(&stop);
        let mut buffer: BTreeMap<usize, T> = BTreeMap::new();
        'drain: for (k, out) in rx {
            debug_assert!(!buffer.contains_key(&k), "unit {k} worked twice");
            buffer.insert(k, out);
            while let Some(out) = buffer.remove(&emitted) {
                if let Err(e) = emit(emitted, out) {
                    result = Err(e);
                    // sound: Release pairs with the gate's Acquire
                    // load of the stop flag, which releases parked
                    // workers; leaving the loop drops the receiver, so
                    // running workers' sends fail and they exit too.
                    stop.store(true, Ordering::Release);
                    break 'drain;
                }
                emitted += 1;
                // sound: Release publishes the advanced frontier — a
                // gated worker whose Acquire load sees the new value
                // also sees every emission before it.
                frontier.store(emitted, Ordering::Release);
            }
        }
    });
    result.map(|()| emitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering::SeqCst;

    /// Instrumented unit work. It counts how often each unit starts and
    /// how far past the emission count it starts, and it holds the
    /// slow unit until every unit the gate admits behind it has
    /// started, so the other workers are forced up to the gate.
    struct Probe {
        started: Vec<AtomicUsize>,
        emitted: AtomicUsize,
        max_lead: AtomicUsize,
        slow: Option<usize>,
        admitted: Range<usize>,
    }

    impl Probe {
        fn new(n: usize, workers: usize, slow: Option<usize>) -> Probe {
            let effective = workers.min(n).max(1);
            let admitted = match slow {
                Some(s) if effective > 1 => s + 1..(s + 4 * effective).min(n),
                _ => 0..0,
            };
            Probe {
                started: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                emitted: AtomicUsize::new(0),
                max_lead: AtomicUsize::new(0),
                slow,
                admitted,
            }
        }

        /// Runs unit `k`; true when `k` is the slow unit.
        fn work(&self, k: usize) -> bool {
            self.started[k].fetch_add(1, SeqCst);
            let lead = k.saturating_sub(self.emitted.load(SeqCst));
            self.max_lead.fetch_max(lead, SeqCst);
            if self.slow != Some(k) {
                return false;
            }
            // Bounded, so a gate that admits too little fails the
            // lead assertion below instead of hanging.
            for _ in 0..2000 {
                if self
                    .admitted
                    .clone()
                    .all(|u| self.started[u].load(SeqCst) > 0)
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        }

        fn emit(&self) {
            self.emitted.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn ordered_par_map_keeps_its_contract() {
        // (n, workers, slow unit)
        let cases: &[(usize, usize, Option<usize>)] = &[
            (0, 1, None),
            (0, 4, None),
            (1, 4, Some(0)),
            (5, 8, Some(2)),
            (40, 1, Some(3)),
            (64, 2, Some(0)),
            (64, 3, Some(17)),
            (200, 4, Some(199)),
        ];
        for &(n, workers, slow) in cases {
            let case = format!("n={n} workers={workers} slow={slow:?}");
            let effective = workers.min(n).max(1);

            // Order, exactly-once work and the run-ahead bound.
            let probe = Probe::new(n, workers, slow);
            let mut order = Vec::new();
            let done: Result<usize, ()> = ordered_par_map(
                n,
                workers,
                None,
                |k| {
                    probe.work(k);
                    k * 10
                },
                |k, v| {
                    assert_eq!(v, k * 10, "{case}: result of unit {k}");
                    order.push(k);
                    probe.emit();
                    Ok(())
                },
            );
            assert_eq!(done, Ok(n), "{case}");
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "{case}: emission order");
            assert!(
                probe.started.iter().all(|c| c.load(SeqCst) == 1),
                "{case}: every unit worked exactly once"
            );
            let lead = probe.max_lead.load(SeqCst);
            assert!(lead < 4 * effective, "{case}: a unit started {lead} ahead");
            if let (Some(s), false) = (slow, probe.admitted.is_empty()) {
                let want = probe.admitted.end - 1 - s;
                assert!(lead >= want, "{case}: gate admitted {lead} < {want} ahead");
            }

            let Some(s) = slow else {
                continue;
            };

            // An emit error at the slow unit, with workers run up to the
            // gate behind it, comes back after exactly s emissions.
            let probe = Probe::new(n, workers, slow);
            let mut count = 0;
            let failed = ordered_par_map(
                n,
                workers,
                None,
                |k| probe.work(k),
                |k, _| {
                    if k == s {
                        return Err(k);
                    }
                    count += 1;
                    Ok(())
                },
            );
            assert_eq!(failed, Err(s), "{case}");
            assert_eq!(count, s, "{case}: emissions before the error");

            // A panic in the slow unit's work or at its emission
            // propagates instead of leaving gated workers parked.
            for in_work in [true, false] {
                let probe = Probe::new(n, workers, slow);
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let _: Result<usize, ()> = ordered_par_map(
                        n,
                        workers,
                        None,
                        |k| assert!(!(probe.work(k) && in_work), "unit {k} failed"),
                        |k, ()| {
                            assert!(k != s, "emit {k} failed");
                            Ok(())
                        },
                    );
                }));
                assert!(run.is_err(), "{case}: panic (in work: {in_work}) lost");
            }

            // A cancel raised by the slow unit, with workers parked
            // behind it, or before the start, leaves a prefix emitted.
            for pre_raised in [false, true] {
                let probe = Probe::new(n, workers, slow);
                let cancel = AtomicBool::new(pre_raised);
                let mut order = Vec::new();
                let done: Result<usize, ()> = ordered_par_map(
                    n,
                    workers,
                    Some(&cancel),
                    |k| {
                        if probe.work(k) {
                            cancel.store(true, SeqCst);
                        }
                    },
                    |k, ()| {
                        order.push(k);
                        Ok(())
                    },
                );
                let count = done.unwrap();
                assert_eq!(order, (0..count).collect::<Vec<_>>(), "{case}: prefix");
                if pre_raised {
                    assert_eq!(count, 0, "{case}: a raised flag claims nothing");
                } else {
                    assert!(count > s, "{case}: the claimed slow unit was dropped");
                }
            }
        }
    }
}
