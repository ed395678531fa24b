//! Closed-loop APS simulation harness.
//!
//! Wires together a patient simulator, a controller, an optional fault
//! injector, and any number of safety monitors with mitigation — the
//! experimental setup of the paper's Fig. 5a:
//!
//! * [`session`] — **the primary entry point**:
//!   [`Session::builder`](session::Session::builder) composes one run
//!   fluently (patient, controller, repeatable monitors stepped against
//!   one physics pass, fault, config, per-step observer), and a serde
//!   [`SessionSpec`](session::SessionSpec) describes runs as data;
//! * [`closed_loop::run`] — the legacy positional wrapper over the
//!   same cycle, one optional monitor;
//! * the private `engine` module — the one closed-loop cycle every run
//!   executes, generic over its lane count: sessions, positional runs
//!   and the serial reference's campaign jobs are its one-lane
//!   instance, and a campaign group's lanes, in banks of
//!   [`batch::BATCH_LANES`], its batched instance: a lane can carry
//!   several jobs and split mid-cycle where their faults stop doing
//!   the same thing;
//! * the private `fork` module — a campaign group (the jobs of one
//!   patient and initial BG) runs as one lane carrying every job,
//!   which forks wherever a job's fault first changes the loop;
//! * [`platform::Platform`] — the two evaluation platforms (OpenAPS +
//!   Glucosym-style, Basal-Bolus + UVA-Padova-style);
//! * [`batch`] — the structure-of-arrays physics banks of
//!   [`batch::BATCH_LANES`] lanes that a campaign group's lanes step
//!   on, bit-identical to running each job alone;
//! * [`campaign`] — the fault-injection campaign runner (grid of
//!   patients × initial BG × scenarios, multi-threaded). Its one
//!   engine claims groups of jobs, runs each group as lockstep lanes
//!   that fork where a job's fault first changes the loop, under
//!   per-job fault isolation, behind the bounded-memory streaming sink
//!   ([`campaign::run_campaign_with_workers`]) and the fault-tolerant path
//!   ([`campaign::run_campaign_resumable`]): panic-isolated jobs,
//!   retry with bounded backoff, and checkpoint/resume;
//! * [`exec`] — the one ordered parallel executor under every
//!   campaign and replay path, and its ordering and bounded-memory
//!   contract;
//! * [`outcome`] — typed per-job errors ([`outcome::SimError`]), the
//!   [`outcome::JobOutcome`] fate of each job, and the campaign
//!   [`outcome::ErrorLedger`];
//! * [`checkpoint`] — versioned serde
//!   [`checkpoint::CampaignCheckpoint`] snapshots (completed-job
//!   bitmap, ledger, rolling trace digest) appended to a checkpoint
//!   log for kill/resume;
//! * [`chaos`] — deterministic executor-fault injection
//!   ([`chaos::ChaosConfig`]): seeded worker panics, delays, and
//!   poisoned specs for hardening tests;
//! * [`replay`] — offline (parallel) monitor replay over recorded
//!   campaigns, either in memory ([`replay::replay_campaign`]) or
//!   straight out of an open binary trace store
//!   ([`replay::replay_store`]);
//! * [`dataset`] — supervised dataset extraction for the ML baselines
//!   and threshold learning;
//! * [`shard`] — shard planning for campaign-as-a-service: splits a
//!   campaign into standalone sub-specs whose expansions concatenate
//!   to exactly the parent job list, so per-shard
//!   checkpoint/resume and result merging stay bit-identical;
//! * [`io`] — CSV / JSON-Lines persistence of traces for external
//!   analysis tooling (bulk corpora belong in `aps_tracestore`'s
//!   binary format instead).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod campaign;
pub mod chaos;
pub mod checkpoint;
pub mod closed_loop;
pub mod dataset;
mod engine;
pub mod exec;
mod fork;
pub mod io;
pub mod outcome;
pub mod platform;
pub mod replay;
pub mod session;
pub mod shard;
