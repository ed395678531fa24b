//! # APS Safety Monitor — facade crate
//!
//! Reproduction of *"Data-driven Design of Context-aware Monitors for
//! Hazard Prediction in Artificial Pancreas Systems"* (Zhou et al.,
//! DSN 2021). This crate re-exports the whole workspace so examples,
//! integration tests, and downstream users can depend on one crate:
//!
//! | module | contents |
//! |--------|----------|
//! | [`types`] | shared domain types (glucose, insulin, traces) |
//! | [`glucose`] | patient simulators (Bergman/GIM, Dalla Man), CGM, pump, IOB |
//! | [`controllers`] | oref0-style and basal–bolus controllers |
//! | [`stl`] | signal temporal logic engine |
//! | [`optim`] | L-BFGS-B and tightness losses (TMEE/TeLEx/MSE/MAE) |
//! | [`ml`] | from-scratch DT / MLP / LSTM baselines |
//! | [`fault`] | fault-injection engine |
//! | [`risk`] | BG risk index and hazard labeling |
//! | [`metrics`] | tolerance-window metrics, TTH, reaction time, risk |
//! | [`core`] | **the contribution**: SCS, threshold learning, monitors, mitigation |
//! | [`tracestore`] | versioned columnar binary trace store (streaming writer, zero-copy reader) |
//! | [`sim`] | sessions, closed-loop harness, platforms, campaigns, datasets |
//! | [`service`] | campaign-as-a-service daemon: sharded resumable jobs, content-addressed result cache |
//!
//! # Quickstart
//!
//! Runs are *composed*:
//! [`Session::builder`](sim::session::Session::builder) assembles one
//! closed-loop simulation fluently, and any number of `.monitor(..)` /
//! `.monitor_spec(..)` calls attach hazard monitors that all score the
//! **same single physics pass** (each gets its own alert stream in
//! [`SimTrace::monitor_tracks`](types::SimTrace::monitor_tracks)):
//!
//! ```
//! use aps_repro::prelude::*;
//!
//! // One insulin-overdose attack, scored by the context-aware monitor
//! // and the online risk-index ground truth simultaneously.
//! let trace = Session::builder(Platform::GlucosymOref0)
//!     .patient(0)
//!     .monitor_spec(MonitorSpec::Cawot)
//!     .monitor_spec(MonitorSpec::RiskIndex)
//!     .inject(FaultScenario::new("rate", FaultKind::Max, Step(20), 36))
//!     .run()
//!     .expect("valid session");
//! assert_eq!(trace.len(), 150);
//! assert_eq!(trace.monitor_tracks.len(), 2);
//! assert!(trace.track("cawot").unwrap().first_alert().is_some());
//! ```
//!
//! Sessions also exist *as data*: a serde
//! [`SessionSpec`](sim::session::SessionSpec) (platform, patient,
//! monitors, fault, loop config) builds the same run from JSON —
//! `repro run --spec examples/session_spec.json` — and the builder
//! validates the fault target against the controller's injectable
//! surface at build time.
//!
//! ## Legacy entry point
//!
//! The original positional API,
//! [`closed_loop::run`](sim::closed_loop::run)`(patient, controller,
//! Option<monitor>, Option<injector>, &config)`, is retained as a
//! documented thin wrapper over the same engine and produces
//! bit-identical traces (pinned by `tests/session_equivalence.rs`).
//! It is frozen, not deprecated: new capabilities — several monitors,
//! per-step observers, spec files, target validation — land only on
//! [`Session`](sim::session::Session).
//!
//! # Performance
//!
//! Fault-injection campaigns are the workload that matters: a paper-
//! scale run is thousands of closed-loop simulations, each stepping a
//! patient ODE and a monitor 150 times. The campaign hot path is
//! engineered accordingly:
//!
//! * **Batched lockstep stepping (SoA lanes)** — every campaign
//!   executor ([`sim::campaign::run_campaign_with_workers`] and the
//!   fault-tolerant [`sim::campaign::run_campaign_resumable`] alike)
//!   steps a group's lanes in lockstep, [`sim::batch::BATCH_LANES`] = 8
//!   lanes to a bank, through structure-of-arrays compartment banks
//!   (`BatchedBergman` / `BatchedDallaMan`: one `[f64; LANES]` row per
//!   ODE compartment) integrated by a single
//!   [`glucose::ode::BatchedRk4Scratch`] pass whose stage math is
//!   per-lane loops over flat arrays. Three properties make the lanes
//!   autovectorize *and* stay bit-identical to a scalar run:
//!   (1) lanes are arithmetically independent — no horizontal
//!   reductions, so lane `l` of a batch op is exactly the scalar op on
//!   lane `l`'s data; (2) IEEE-754 `f64` arithmetic is deterministic
//!   per operation (rustc neither reassociates nor contracts
//!   `a * b + c` into FMA, even with AVX2 enabled via
//!   `.cargo/config.toml`'s `target-cpu=x86-64-v3`); (3) only the
//!   physics is batched — sensor, fault routing, controller, monitors,
//!   mitigation, pump and recording run per lane in the one
//!   closed-loop cycle function every engine shares, of which a scalar
//!   run is the one-lane instance, so there is no second copy of them
//!   to drift.
//!   8 lanes = two AVX2 (or one AVX-512) f64 vectors per compartment
//!   row — wide enough to saturate 256-bit units, small enough that a
//!   part-filled bank wastes at most 7 lanes. Bit-identity against
//!   [`sim::campaign::run_campaign_serial`] across both patient
//!   models, the full fault alphabet, mitigation, sensor noise and
//!   padding lanes is pinned by `tests/batched_equivalence.rs`; a lane
//!   that diverges to NaN free-runs harmlessly (non-finite is absorbing
//!   under RK4) and surfaces as that job's typed `NonFinite` error
//!   without poisoning its lane-mates.
//! * **Jobs fork where their faults first change the loop** — an
//!   executor's unit of work is a *group*: the jobs of one (patient,
//!   initial BG) cell, which differ only in their fault scenario, so
//!   two jobs run the same loop for as long as their faults do the
//!   same thing to it. The group starts as one lane that carries every
//!   job as a *rider*. Each cycle each rider's injector is evaluated on
//!   the lane's values, and a rider splits off to a lane of its own
//!   only at the first cycle where its *effect* differs from its
//!   lane's: which variable it writes and the value's bits before the
//!   decision, the commanded rate's bits after it. A split copies the
//!   lane mid-cycle (patient into a free lane of a
//!   [`sim::batch::BATCH_LANES`] bank, forks of the controller and
//!   monitor via [`controllers::Controller::fork`] and
//!   [`core::monitors::HazardMonitor::fork`], CGM with its RNG, pump,
//!   mitigator, labelled trace and verdict prefix). Riders with equal
//!   effects split together; a rider that never splits takes its
//!   lane's trace with its own meta and `fault_active` column. So a
//!   duration family shares a lane until its shortest window ends, a
//!   clamped rate fault rides while it commands the decided rate, and
//!   two faults that write the same value to the same variable ride
//!   together. On the paper grid (starts 20, 50 and 90 of 150 cycles,
//!   durations 6, 18 and 36) a group steps 18 041 (Glucosym) or
//!   15 087 (T1DS) lane-cycles where forking each job at its fault
//!   start stepped 26 250. Every monitor forks (the DT, MLP and LSTM
//!   monitors share their trained model with their forks), so every
//!   group runs this one way. [`sim::campaign::run_campaign_serial`] and
//!   the per-job isolation path still run every job from step 0, so
//!   the equivalence suites check every rider against an independent
//!   full run (`tests/fork_equivalence.rs`).
//! * **Allocation-free integration** — the patient models integrate
//!   with a const-generic stack scratch
//!   ([`glucose::ode::Rk4Scratch`]); no heap allocation occurs inside
//!   the per-step RK4 loop, and the batched banks reuse one
//!   [`glucose::ode::BatchedRk4Scratch`] across steps. The scratch
//!   stepper is pinned bit-identical to the seed's allocating RK4
//!   (`tests/perf_equivalence.rs`), and the banks to the scalar models
//!   (`tests/batched_equivalence.rs`).
//! * **O(1) IOB reads, no dependent add chain on record** — the
//!   insulin-on-board estimator keeps the next `W` window sums pending
//!   in a ring (`W` = whole-cycle ages within the curve's horizon).
//!   Each record scatters `amount * remaining(age)` into all `W` of
//!   them as two contiguous multiply-add loops that vectorize, and
//!   takes the sum that is now complete; nothing re-folds the window.
//!   The result is bit-identical to folding the window oldest first
//!   with std's `f64` `Sum`: each sum gets the same products in the
//!   same order from the same `-0.0` seed, and rustc never contracts
//!   to FMA (see `tests/iob_equivalence.rs`). Ages are integer cycle
//!   counts that index a memoized activity table, and the
//!   basal-equilibrium integral behind
//!   [`glucose::iob::IobEstimator::set_basal_baseline`] and the
//!   activity table itself are cached process-wide per curve, so
//!   building a controller or monitor context costs no `exp` calls
//!   (the integral was ~500 per job, the table ~200 per estimator).
//! * **One ordered streaming executor** — the campaign engine and
//!   offline monitor replay both run on
//!   [`sim::exec`], which emits results into a caller-supplied sink in
//!   deterministic order with O(workers) memory, so paper-scale sweeps
//!   stream ([`sim::campaign::run_campaign_with_workers`]);
//!   [`sim::campaign::run_campaign`] is the collecting wrapper, defined
//!   to equal [`sim::campaign::run_campaign_serial`].
//! * **Many monitors, one physics pass** — a
//!   [`Session`](sim::session::Session) steps every monitor attached
//!   with [`SessionBuilder::monitor`](sim::session::SessionBuilder::monitor)
//!   against one physics pass (alert streams recorded per monitor in
//!   the trace), so scoring a zoo of M monitors live costs
//!   1×physics + M×monitor instead of M×physics. The `repro zoo`
//!   report asserts the step count and measures every monitor's
//!   reaction time, including the `RiskIndexMonitor` latency floor.
//! * **Streaming O(n) hazard labeling** — [`risk::label_trace`] rides
//!   the incremental [`risk::RiskTracker`] (O(1) rolling LBGI/HBGI per
//!   sample) instead of recomputing every trailing window
//!   (O(n·window)); labels are pinned bit-identical to the retained
//!   reference implementation, [`risk::label_series_reference`]
//!   (`tests/risk_equivalence.rs`). The same
//!   tracker powers the online
//!   [`core::monitors::RiskIndexMonitor`], so hazard awareness exists
//!   *during* a run, not only post hoc.
//! * **Array-backed controller state** — both controllers (oref0 at
//!   PR 1, basal–bolus at PR 2) use `Copy` profiles and fixed-slot
//!   variable arrays; no `HashMap` lookups or profile clones in
//!   `decide`.
//! * **Cohort template per campaign** — job set-up clones its patient
//!   and basal rate from a cohort template built once per
//!   campaign (every member constructed, its equilibrium basal solved
//!   once) instead of building all ten patients for every job, which
//!   took about a third of a T1DS job's time.
//!   [`sim::campaign::run_campaign_serial`], the oracle, still builds
//!   each job's patient, basal and controller fresh.
//! * **Word-wise campaign digest** — every emitted trace is folded into
//!   the rolling campaign digest on the executor's single emit thread
//!   ([`sim::checkpoint::trace_digest`]). It mixes six 64-bit words per
//!   record (a packed step/action/fault/hazard/alert tag plus the five
//!   f64 columns' bits) instead of ~75 FNV-1a bytes and three `Display`
//!   calls: about 15 ns per record instead of 105–120 ns, against a
//!   ~450 ns T1DS cycle. The scheme is checkpoint format v2; v1
//!   checkpoints are refused at resume.
//!
//! The measured baseline lives in `BENCH_campaign.json` (quick
//! campaign: 62 runs × 150 steps, one core; seed-faithful hot path vs
//! current). The committed report was recorded while two executors
//! existed: ≈10× for one job at a time (`speedup`) and ≈15.3× for
//! lockstep blocks (`batched_speedup`). Every executor now runs
//! lockstep lanes, so `repro bench-campaign` times the one campaign executor
//! ([`sim::campaign::run_campaign`]). The report also records a
//! workers-scaling sweep (its throughput at 1/2/4/… pinned workers).
//! Regenerate it with:
//!
//! ```text
//! cargo run --release -p aps-bench --bin repro -- \
//!     bench-campaign --sweep-workers
//! ```
//!
//! CI re-measures this every run and **fails below 80% of the best
//! committed speedup** — the larger of `speedup` and
//! `batched_speedup` (`bench-campaign --sweep-workers --guard
//! <committed.json>`). The pipeline benchmark (`perfbench/`) breaks
//! the same campaign down by layer: RK4 physics
//! (`glucose.physics_ns`), job set-up, cycle coverage and executor
//! efficiency (`sim.*`).
//!
//! `repro overhead` reproduces the paper's §V-E6 per-cycle monitor
//! overheads: it times each of the seven monitors (CAWT, its STL
//! form, Guideline, MPC, DT, MLP 256-128, LSTM 128-64) per control
//! cycle beside the paper's figures, and the context mitigator per
//! call. It takes no flags and only prints, so its timings stay out
//! of `results/`.
//!
//! # Failure semantics
//!
//! Campaigns are expected to survive their own failures — the same
//! philosophy the paper applies to the APS control loop, applied to
//! the harness itself. The hardened executor
//! ([`sim::campaign::run_campaign_resumable`]) runs the same forking
//! lockstep lanes as every other campaign executor and guarantees,
//! per job:
//!
//! * **Isolation** — every job is validated first
//!   ([`fault::FaultScenario::validate`]) and runs behind
//!   `catch_unwind`, as a rider of its group's lanes or, when a lane
//!   cannot hold it (invalid spec, chaos plan, deadline), or its lane
//!   failed or its group's set-up or lanes panicked, on its own from
//!   attempt 1, so the blame lands on the exact job. Its ODE state is checked for finiteness after every
//!   control cycle ([`glucose::PatientSim::state_is_finite`]; the RK4
//!   stepper itself rejects non-finite states via
//!   [`glucose::ode::Rk4Scratch::try_integrate`]). A panic, a
//!   diverging model, an invalid spec, or a per-job deadline overrun
//!   becomes a typed [`sim::outcome::SimError`], never a torn-down
//!   executor or a silently poisoned trace.
//! * **Retry with bounded backoff** — failed jobs re-run up to
//!   [`sim::outcome::RetryPolicy::max_attempts`] times with
//!   exponential, capped [`sim::outcome::Backoff`]; deterministic
//!   emission order is preserved throughout.
//! * **Graceful degradation** — whatever still fails lands as a
//!   [`sim::outcome::JobOutcome::Failed`] entry (error + attempt
//!   count) in the machine-readable
//!   [`sim::outcome::ErrorLedger`] of the final
//!   [`sim::campaign::CampaignReport`]; every other job's trace is
//!   delivered normally.
//! * **Checkpoint/resume** — with a
//!   [`sim::campaign::CheckpointPolicy`], a versioned
//!   [`sim::checkpoint::CampaignCheckpoint`] (format version
//!   [`sim::checkpoint::CHECKPOINT_VERSION`]: spec hash, chaos seed,
//!   completed-job bitmap, ledger, aggregate partials with a rolling
//!   trace digest) is appended to a checkpoint log every N completed
//!   jobs. The log is consistent after a process crash (SIGKILL at
//!   any write, including mid-append): a resume starts from its last
//!   complete snapshot. No fsync, so an OS crash may lose recent
//!   snapshots.
//!   Resuming from a snapshot skips completed jobs and is
//!   **bit-identical** to the uninterrupted run — same emissions,
//!   same ledger, same digest — pinned by the kill-at-every-
//!   checkpoint test in `tests/campaign_ft.rs`. A snapshot from a
//!   different spec, chaos seed, or format version is rejected with a
//!   typed [`sim::checkpoint::CheckpointError`].
//! * **Deterministic chaos** — [`sim::chaos::ChaosConfig`] injects
//!   seeded worker panics, delays, and poisoned specs *into the
//!   executor only* (never the physics): same seed ⇒ byte-identical
//!   ledger, regardless of thread interleaving.
//!
//! Worker counts resolve explicitly (`--workers` flag /
//! [`sim::campaign::CampaignOptions::workers`], then the
//! `APS_WORKERS` environment variable, then detected parallelism,
//! clamped to [`sim::campaign::MAX_WORKERS`]) and the chosen source
//! is surfaced in the report ([`sim::campaign::WorkerSource`]) so a
//! silent fallback to one worker is visible.
//!
//! ```
//! use aps_repro::prelude::*;
//!
//! let spec = CampaignSpec {
//!     patient_indices: vec![0],
//!     steps: 40,
//!     ..CampaignSpec::quick(Platform::GlucosymOref0)
//! };
//! let dir = std::env::temp_dir();
//! let options = CampaignOptions {
//!     retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
//!     checkpoint: Some(CheckpointPolicy {
//!         path: dir.join("campaign_ckpt.json"),
//!         every_jobs: 10,
//!     }),
//!     ..CampaignOptions::default()
//! };
//! // First run: snapshots every 10 jobs (kill it at any point…)
//! let first = run_campaign_resumable(&spec, None, &options, None, |_i, _outcome| {})
//!     .expect("checkpoint dir writable");
//! assert!(first.ledger.is_empty());
//! // …later: resume from the snapshot; completed jobs are skipped and
//! // the final report is bit-identical to an uninterrupted run.
//! let snapshot = CampaignCheckpoint::load(&dir.join("campaign_ckpt.json")).unwrap();
//! let resumed = run_campaign_resumable(&spec, None, &options, Some(&snapshot), |_i, _outcome| {})
//!     .expect("snapshot matches this spec");
//! assert_eq!(resumed.digest, first.digest);
//! assert_eq!(resumed.skipped_resumed, resumed.total_jobs);
//! ```
//!
//! The same machinery drives `repro bench-campaign --chaos-seed N
//! --retry 2 --checkpoint ck.json --resume ck.json` (see
//! `examples/resumable_campaign.rs`).
//!
//! # ML baselines
//!
//! The DT, MLP and LSTM classifier monitors of Table VI train on the
//! paper's Eq. 7/8 task framing ([`sim::dataset::build_dataset`],
//! [`sim::dataset::build_seq_dataset`]). LSTM training runs through
//! reusable scratch buffers ([`ml::lstm::LstmTrainer`]): **zero heap
//! allocations per timestep** in steady state, pinned by a counting
//! allocator in `tests/lstm_alloc.rs`, and bit-identical to the
//! retained allocating reference (`Lstm::fit_reference`,
//! `tests/lstm_equivalence.rs`).
//!
//! # Trace storage
//!
//! Specs and reports round-trip through JSON; bulk trace corpora do
//! not. A cohort-scale campaign (~10⁸ step records) pays full-text
//! deserialization and per-record allocation on every replay or
//! training pass if it lives in JSONL. The
//! [`tracestore`] crate stores a corpus in a
//! versioned little-endian **columnar** binary file instead:
//!
//! ```text
//! header (32 B):  "APSTRACE" | version | flags | code hash | spec hash
//! per trace:      n_records | step deltas (zigzag varint)
//!                 | bg | bg_true | iob | commanded | delivered  (f64 cols)
//!                 | action u8 | fault bitset | hazard u8 | alert u8
//!                 | TraceMeta side table | AlertTrack side table
//! footer:         per-trace offsets | index offset | count | "APSTREND"
//! ```
//!
//! * **Writing is streaming** — [`tracestore::FileTraceWriter`]
//!   is a `run_campaign_with_workers`
//!   sink (`repro bench-campaign --store F` emits the store directly);
//!   finalize is an atomic temp-file rename, so the destination is
//!   never torn.
//! * **Reading is zero-copy** — [`tracestore::TraceStoreReader`]
//!   validates the whole file
//!   once at open; after that, record iteration and column reads
//!   decode straight off the single mapped buffer with no per-record
//!   allocation. Owned [`SimTrace`](types::SimTrace)s materialize only
//!   on demand, and are **bit-identical** to the JSONL path (exact
//!   `f64` bits; pinned by proptest in
//!   `tests/tracestore_roundtrip.rs`).
//! * **Wired through the stack** —
//!   [`sim::replay::replay_store`] replays monitors straight out
//!   of a store, and `repro convert` moves corpora between formats
//!   with a measured `--verify` round trip (size ratio, read speedup,
//!   record-view and column-copy rates, bit-identity →
//!   `results/convert_verify.json`).
//! * **Versioned both ways** — a file from a *newer* format is
//!   rejected with the typed [`tracestore::StoreError::Version`];
//!   side tables are
//!   length-prefixed, so a v1 reader defaults fields an older writer
//!   omitted and ignores additions from a newer one.
//!
//! ```
//! use aps_repro::prelude::*;
//! use aps_repro::tracestore::{write_store, TraceStoreReader};
//!
//! // Record a tiny campaign, store it, and read it back bit-identical.
//! let spec = CampaignSpec {
//!     patient_indices: vec![0],
//!     initial_bgs: vec![120.0],
//!     steps: 30,
//!     ..CampaignSpec::quick(Platform::GlucosymOref0)
//! };
//! let traces = run_campaign(&spec, None);
//! let bytes = write_store(&traces, 0).expect("encode");
//! let reader = TraceStoreReader::from_bytes(bytes).expect("validate");
//! assert_eq!(reader.len(), traces.len());
//! assert_eq!(reader.read_all(), traces);
//!
//! // Columns stream without materializing traces.
//! let mut bg = Vec::new();
//! reader.view(0).copy_f64_column(aps_repro::tracestore::F64Column::Bg, &mut bg);
//! assert_eq!(bg.len(), traces[0].len());
//! ```
//!
//! # Static analysis
//!
//! The invariants above are guarded dynamically — counting-allocator
//! tests, bit-identity replays, proptests — but dynamic guards only
//! fire on the paths a test happens to drive. `repro lint` (crate
//! `aps-lint`, zero dependencies, hand-rolled lexer + item scanner —
//! no `syn`) re-checks five of them *statically* on every push, over
//! the whole workspace, in well under a second:
//!
//! | id       | invariant                                                        |
//! |----------|------------------------------------------------------------------|
//! | `alloc`  | functions registered in `lint.toml` `[deny_alloc]` never allocate |
//! | `nan`    | NaN-masking float ops (`f64::max/min`, `.clamp()`, `partial_cmp().unwrap()`) only in finite-guarded scopes |
//! | `det`    | no wall clock / OS entropy / hash-order iteration in checkpointed modules |
//! | `serde`  | round-tripping containers carry container-level `#[serde(default)]` or a version field; `u64` fields hex-encoded or `// lint: hex-exempt(reason)` |
//! | `sound`  | every atomic `Ordering` / `unsafe` in the lock-free executor has an adjacent `// sound:` justification |
//! | `unwrap` | library-code `.unwrap()`/`.expect()` in audited trees only ratchets down |
//!
//! Findings are diffed against the committed `lint.baseline`
//! (a multiset keyed on rule/file/scope — line numbers excluded so
//! moving code doesn't churn it). `repro lint --deny-new` fails
//! exactly when a violation is *not* covered by the baseline; that is
//! the CI gate. `repro lint --write-baseline` regenerates the file
//! and **refuses to grow it** — new debt is either fixed or added by
//! hand in review, where the diff is visible.
//!
//! Registering a new hot function is one line in `lint.toml`
//! (`[deny_alloc] functions`); the analyzer has no call graph, so
//! register the concrete inner functions, not their callers. Config
//! entries that no longer match anything are themselves violations
//! (`registered-*-not-found`) — a rename cannot silently drop
//! protection. Known-good/known-bad fixtures for every rule family
//! live in `crates/lint/tests/fixtures/`.
//!
//! # Campaign service
//!
//! Everything above runs a campaign *inside one process*. The
//! [`service`] crate turns that into a single-node service: a daemon
//! (`repro serve`) owns a job queue, an executor, and a result cache,
//! and clients (`repro submit` / `status` / `fetch` / `cancel`, or
//! [`service::Client`] in-process) talk to it over a Unix socket.
//! The existing serde specs are the currency — a submission is a
//! [`CampaignSpec`](sim::campaign::CampaignSpec), a result is a
//! [`tracestore`] file — no new schema.
//!
//! **Wire protocol.** Frames are 4-byte little-endian length prefix +
//! UTF-8 JSON, capped at [`service::MAX_FRAME`] (the length check
//! fires before any allocation). The JSON is a versioned envelope,
//! `{"version": 1, "request": {...}}`; the version is probed before
//! the payload is decoded, so a frame from a newer protocol yields
//! the typed [`service::WireError::Version`] — never a parse error,
//! never a panic, never a hang (pinned by proptest over arbitrary,
//! truncated, oversized, and future-version frames in
//! `crates/service/tests/wire_proptest.rs`).
//!
//! **Shards and resume.** The scheduler splits each submission's
//! scenario grid into contiguous shards with
//! [`sim::shard::plan_shards`] — splits land on patient (or
//! per-patient BG) boundaries, so the shard job lists concatenate to
//! the parent campaign's exactly. Each shard runs through the same
//! [`run_campaign_resumable`](sim::campaign::run_campaign_resumable)
//! used by `--checkpoint`/`--resume`, persisting the versioned
//! [`CampaignCheckpoint`](sim::checkpoint::CampaignCheckpoint) plus an
//! append-only shard log. The log is a [`tracestore`] trace log: the
//! store header, then one trace block per completed job, with no
//! footer; a failed job gets no block, because the checkpoint's
//! ledger already records it. The sink appends each block *before*
//! the checkpoint covering it is saved, so the log can only run ahead
//! of the bitmap — on restart the log is cut back (`File::set_len`)
//! to the blocks the checkpoint covers, never the reverse, and a
//! shard whose log falls short, or that has no checkpoint, re-runs
//! from scratch. Merge walks each shard's job indices, folding the
//! ledger entry of a failed index and the next block of every other,
//! so no trace is ever JSON-encoded on this path. The shard is the
//! unit of resume: a SIGKILLed daemon restarts, re-queues
//! every incomplete job, resumes each shard from its checkpoint, and
//! the merged result set — traces *and* the order-sensitive campaign
//! digest — is bit-identical to an uninterrupted serial run (pinned
//! end-to-end in `crates/service/tests/daemon_e2e.rs` and by the CI
//! `service-smoke` job, which kills a live daemon with SIGKILL).
//!
//! **Content-addressed cache.** A finished job's merged traces are
//! published to `cache/<key>.apst` where
//! `key = `[`service::cache_key`]`(spec_hash, seed, code_version_hash)`
//! — the same three hashes the tracestore header already carries.
//! Identical resubmissions (same spec, same seed lane, same code
//! version) are served with **zero** executor work, even by a fresh
//! daemon that never ran the job; changing any of the three misses.
//! Publication is concurrency-safe: writers finalize to a unique temp
//! name and skip if the destination already exists (first writer
//! wins; the content address makes both writers' bytes equivalent).
//!
//! ```
//! use aps_repro::prelude::*;
//! use aps_repro::service::cache_key;
//! use aps_repro::service::wire::{decode_request, encode_request, Request};
//!
//! // Shards partition the campaign grid exactly.
//! let spec = CampaignSpec::quick(Platform::GlucosymOref0);
//! let shards = plan_shards(&spec, 3);
//! assert_eq!(
//!     shards.iter().map(|s| s.job_count).sum::<usize>(),
//!     campaign_size(&spec),
//! );
//!
//! // Requests round-trip through the versioned wire envelope.
//! let request = Request::Status { job: String::new() };
//! let payload = encode_request(&request).expect("encode");
//! assert_eq!(decode_request(&payload).expect("decode"), request);
//!
//! // The content address is sensitive to each of its three inputs.
//! let key = cache_key(1, 2, 3);
//! assert_ne!(key, cache_key(9, 2, 3));
//! assert_ne!(key, cache_key(1, 9, 3));
//! assert_ne!(key, cache_key(1, 2, 9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aps_controllers as controllers;
pub use aps_core as core;
pub use aps_fault as fault;
pub use aps_glucose as glucose;
pub use aps_metrics as metrics;
pub use aps_ml as ml;
pub use aps_optim as optim;
pub use aps_risk as risk;
pub use aps_service as service;
pub use aps_sim as sim;
pub use aps_stl as stl;
pub use aps_tracestore as tracestore;
pub use aps_types as types;

/// The most commonly used items, for `use aps_repro::prelude::*`.
pub mod prelude {
    pub use aps_controllers::Controller;
    pub use aps_core::context::{ContextBuilder, ContextVector};
    pub use aps_core::hms::{ContextMitigator, ContextMitigatorConfig, Hms, TsLearnConfig};
    pub use aps_core::learning::{learn_thresholds, LearnConfig};
    pub use aps_core::mitigation::Mitigator;
    pub use aps_core::monitors::{
        CawMonitor, GuidelineMonitor, HazardMonitor, LstmMonitor, MlMonitor, MonitorInput,
        MpcMonitor, NullMonitor, RiskIndexMonitor, StlCawMonitor,
    };
    pub use aps_core::scs::Scs;
    pub use aps_fault::{FaultInjector, FaultKind, FaultScenario};
    pub use aps_glucose::{BoxedPatient, PatientSim};
    pub use aps_metrics::glycemic::GlycemicSummary;
    pub use aps_metrics::ConfusionCounts;
    pub use aps_ml::data::StandardScaler;
    pub use aps_risk::{LabelConfig, RiskSample, RiskTracker};
    pub use aps_service::{Client, JobManifest, ServiceConfig};
    pub use aps_sim::batch::BATCH_LANES;
    pub use aps_sim::campaign::{
        campaign_jobs, campaign_size, run_campaign, run_campaign_resumable,
        run_campaign_with_workers, CampaignJob, CampaignOptions, CampaignReport, CampaignSpec,
        CheckpointPolicy, MonitorFactory, ScenarioCtx, WorkerSource,
    };
    pub use aps_sim::chaos::ChaosConfig;
    pub use aps_sim::checkpoint::{CampaignCheckpoint, CheckpointError};
    pub use aps_sim::closed_loop::{self, ExerciseBout, LoopConfig, Meal};
    pub use aps_sim::outcome::{Backoff, ErrorLedger, JobOutcome, RetryPolicy, SimError};
    pub use aps_sim::platform::Platform;
    pub use aps_sim::replay::{replay_campaign, replay_monitor, replay_store};
    pub use aps_sim::session::{MonitorSpec, Session, SessionBuilder, SessionError, SessionSpec};
    pub use aps_sim::shard::{plan_shards, ShardPlan};
    pub use aps_tracestore::{
        read_store, write_store, FileTraceWriter, StoreError, StoreInfo, TraceStoreReader,
        TraceWriter,
    };
    pub use aps_types::{
        AlertTrack, ControlAction, Hazard, MgDl, SimTrace, Step, StepRecord, Units, UnitsPerHour,
    };
}
