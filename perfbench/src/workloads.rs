//! The workloads, their timed (untraced) runs, and their traced runs.
//!
//! Every workload is a closed loop driven from one process over a fixed
//! 3-D Laplacian, with right-hand sides drawn from the run's seed. The
//! untraced run reports the end-to-end metrics; the traced run records
//! spans around every library call, replays one request in round order
//! for unit costs, runs the request once more across processes and in
//! process, times the sequential denominators, and reports the per-layer
//! metrics.

use crate::measure::{cpu_seconds, median, peak_rss_mb, quartiles, secs};
use crate::problem::{
    common, factor, laplacian, lib_err, partition, rel_residual, rhs, setup_pool, split, timed,
    verify, with_rhs, Res, Stages, Verdict, PARALLELISM, TOL,
};
use crate::replay::{replay, ReplayStats};
use crate::report::{Metric, Outcome};
use crate::spans::{Breakdown, Tracer};
use dtm_core::rayon_backend::{self, RayonConfig};
use dtm_core::report::SolveReport;
use dtm_core::runtime::{AsyncNode, ExecutorBackend, NodeRuntime};
use dtm_graph::evs::SplitSystem;
use dtm_graph::partition as gpart;
use dtm_net::{group_assignment, ChildCommand, DistributedBackend, DistributedConfig, RunMode};
use dtm_sparse::solvers::{cg, IterConfig};
use dtm_sparse::{Csr, SparseCholesky};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Which library path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Partition, split, factor and a work-stealing pool solve per request.
    Cold,
    /// One setup, then a multi-process solve over Unix-domain sockets per
    /// request.
    Dist,
}

/// A workload: a path through the library on a `side³` Laplacian torn
/// into `parts` parts.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The library path.
    pub kind: Kind,
    /// Grid side.
    pub side: usize,
    /// Part count.
    pub parts: usize,
}

/// Worker threads of a pool solve, and child processes of a distributed
/// request, on every workload.
///
/// `cold` solves on a one-worker pool: with two workers on a two-core
/// host the pool's asynchrony makes the work of a request depend on how
/// the host schedules the workers (24³@4 needed 445–642 local solves per
/// request from one set of runs to the next), so its median measured the
/// host's load. With one worker the work repeats exactly.
///
/// `dist` runs one child process: two children computing in lockstep
/// rounds, plus the supervising parent, kept both cores busy, so any other
/// tenant's thread slowed every round (a one-thread CPU hog beside the run
/// slowed a request 1.75× with two children, 1.23× with one).
pub const WORKERS: usize = 1;

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "cold-3d24p4",
        kind: Kind::Cold,
        side: 24,
        parts: 4,
    },
    Workload {
        name: "dist-uds-3d24p8",
        kind: Kind::Dist,
        side: 24,
        parts: 8,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same path on an `8³` grid with at most 8 parts, for self-tests.
    pub fn reduced(self) -> Self {
        Self {
            side: 8,
            parts: self.parts.min(8),
            ..self
        }
    }
}

/// Wall budget of one request; a request still running then has failed.
pub const REQUEST_BUDGET: Duration = Duration::from_secs(30);
/// Setups per run on the workload that sets up once.
const SETUP_REPS: usize = 15;

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every right-hand side.
    pub seed: u64,
    /// Length of the measured stream.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// How to launch a socket-backend child process.
    pub child: ChildCommand,
    /// Where the traced run writes its spans.
    pub span_file: Option<PathBuf>,
}

/// Per-request work counters, from the executor's report.
#[derive(Debug, Clone, Copy)]
struct Counters {
    solves: f64,
    msgs: f64,
    flops: f64,
    rounds: f64,
    /// Wall time of the executor call alone.
    work_s: f64,
}

impl Counters {
    fn of(r: &SolveReport, n_parts: usize, work_s: f64) -> Self {
        Self {
            solves: r.total_solves as f64,
            msgs: r.total_messages as f64,
            flops: r.total_flops as f64,
            rounds: r.total_solves as f64 / n_parts as f64,
            work_s,
        }
    }
}

/// What one measured stream of requests produced.
#[derive(Debug, Default)]
struct Stream {
    /// Time to solution of each verified request.
    latencies: Vec<f64>,
    /// Setup stages each request (or each setup) paid.
    setups: Vec<Stages>,
    attempted: u64,
    verified: u64,
    wrong: u64,
    /// Throughput window.
    window_s: f64,
    /// CPU seconds (children included) over the window.
    cpu_s: f64,
    counters: Vec<Counters>,
    /// `net.solve` time minus its in-process twin's, per traced pair.
    net_overhead: Vec<f64>,
    /// In-process twin time per traced pair.
    net_inprocess: Vec<f64>,
    twin_checks: u64,
    twin_mismatches: u64,
}

impl Stream {
    fn tally(&mut self, v: Verdict) {
        match v {
            Verdict::Verified => self.verified += 1,
            Verdict::Wrong => self.wrong += 1,
            Verdict::NotConverged => {}
        }
    }

    fn end_to_end(&self) -> Res<Vec<Metric>> {
        if self.latencies.is_empty() || self.setups.is_empty() {
            return Err("no request verified".into());
        }
        let setups: Vec<f64> = self.setups.iter().map(Stages::total).collect();
        let (q1, q2, q3) = quartiles(&self.latencies);
        let max = self.latencies.iter().copied().fold(f64::MIN, f64::max);
        let min = self.latencies.iter().copied().fold(f64::MAX, f64::min);
        println!(
            "# time to solution over {} verified requests: min {min:.4} q1 {q1:.4} median {q2:.4} q3 {q3:.4} max {max:.4} s",
            self.latencies.len()
        );
        Ok(vec![
            Metric::new("time_to_solution_s", "s", median(&self.latencies)),
            Metric::new("setup_s", "s", median(&setups)),
            Metric::new("rhs_per_s", "1/s", self.verified as f64 / self.window_s),
            Metric::new(
                "verified_frac",
                "frac",
                self.verified as f64 / self.attempted.max(1) as f64,
            ),
            Metric::new("cpu_s_per_rhs", "s", self.cpu_s / self.verified as f64),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()?),
        ])
    }
}

/// Run one workload.
///
/// # Errors
/// A library call failed, or a measurement could not be taken.
pub fn run(w: &Workload, opt: &Options) -> Res<Outcome> {
    let a = laplacian(w.side);
    let pool = setup_pool()?;
    let mut ctx = Ctx {
        w: *w,
        opt,
        a,
        pool,
        tr: Tracer::new(false),
        next_rhs: 0,
    };
    let mut out = match (w.kind, opt.trace) {
        (Kind::Cold, false) => ctx.cold_timed()?,
        (Kind::Cold, true) => ctx.cold_traced()?,
        (Kind::Dist, false) => ctx.dist_timed()?,
        (Kind::Dist, true) => ctx.dist_traced()?,
    };
    if let Some(path) = &opt.span_file {
        if opt.trace {
            ctx.tr
                .write_jsonl(path)
                .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        }
    }
    out.correct = out.problems.is_empty();
    Ok(out)
}

struct Ctx<'o> {
    w: Workload,
    opt: &'o Options,
    a: Csr,
    pool: rayon::ThreadPool,
    tr: Tracer,
    next_rhs: u64,
}

/// Per-layer inputs every traced run gathers.
struct Layers {
    stages: Vec<Stages>,
    assignment: Vec<usize>,
    factor_nnz: usize,
    replay: ReplayStats,
    /// Per-request counters.
    counters: Vec<Counters>,
    rounds_per_rhs: f64,
    inprocess_s: f64,
    overhead_s: f64,
    untraced_tts: f64,
    traced_tts: f64,
    breakdowns: Vec<Breakdown>,
    seq: Sequential,
}

/// The sequential denominators on the same `A` and `b`.
struct Sequential {
    cg_s: f64,
    cg_iters: f64,
    cholesky_s: f64,
}

impl Ctx<'_> {
    fn n(&self) -> usize {
        self.a.n_rows()
    }

    fn next_b(&mut self) -> Vec<f64> {
        let b = rhs(self.n(), self.opt.seed, self.next_rhs);
        self.next_rhs += 1;
        b
    }

    fn rayon_config(&self) -> RayonConfig {
        RayonConfig {
            common: common(),
            num_threads: WORKERS,
            budget: REQUEST_BUDGET,
            ..Default::default()
        }
    }

    fn finish(&self, streams: &[&Stream], metrics: Vec<Metric>) -> Outcome {
        let mut out = Outcome {
            metrics,
            ..Default::default()
        };
        for s in streams {
            out.attempted += s.attempted;
            out.failed += s.attempted - s.verified;
            out.twin_checks += s.twin_checks;
            if s.wrong > 0 {
                out.problems.push(format!(
                    "{} answers claimed convergence but missed the tolerance {TOL:e}",
                    s.wrong
                ));
            }
            if s.twin_mismatches > 0 {
                out.problems.push(format!(
                    "{} multi-process runs differ from their in-process twin",
                    s.twin_mismatches
                ));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // cold: partition + split + factor + pool solve per request
    // ------------------------------------------------------------------

    fn cold_stream(&mut self, seconds: f64) -> Res<Stream> {
        let mut s = Stream::default();
        let cfg = self.rayon_config();
        let cpu0 = cpu_seconds()?;
        let start = Instant::now();
        while s.attempted == 0 || secs(start) < seconds {
            let b = self.next_b();
            let (a, parts, pool, tr) = (&self.a, self.w.parts, &self.pool, &mut self.tr);
            let t0 = Instant::now();
            let root = tr.begin("request");
            let (asg, partition_s) = timed(|| tr.span("graph.partition", || partition(a, parts)));
            let (problem, split_s) = timed(|| tr.span("graph.split", || split(a, &b, asg)));
            let problem = problem?;
            let (nodes, factor_s) =
                timed(|| tr.span("sparse.factor", || factor(&problem.split, pool)));
            let nodes = nodes?;
            let (report, work_s) = timed(|| {
                tr.span("core.solve", || {
                    rayon_backend::solve_prepared(&problem.split, nodes, None, &cfg)
                })
            });
            let report = report.map_err(lib_err("pool solve"))?;
            let v = tr.span("check.verify", || {
                verify(a, &b, &report.solution, report.converged)
            });
            tr.end(root);
            let latency = secs(t0);
            s.setups.push(Stages {
                partition_s,
                split_s,
                factor_s,
            });
            s.counters.push(Counters::of(&report, parts, work_s));
            s.attempted += 1;
            s.tally(v);
            if v == Verdict::Verified {
                s.latencies.push(latency);
            }
        }
        s.window_s = secs(start);
        s.cpu_s = cpu_seconds()? - cpu0;
        Ok(s)
    }

    fn cold_timed(&mut self) -> Res<Outcome> {
        let s = self.cold_stream(self.opt.seconds)?;
        let m = s.end_to_end()?;
        Ok(self.finish(&[&s], m))
    }

    fn cold_traced(&mut self) -> Res<Outcome> {
        let half = self.opt.seconds / 2.0;
        let plain = self.cold_stream(half)?;
        self.tr.set_enabled(true);
        let traced = self.cold_stream(half)?;
        self.tr.set_enabled(false);
        let b0 = rhs(self.n(), self.opt.seed, 0);
        let asg = partition(&self.a, self.w.parts);
        let problem = split(&self.a, &b0, asg.clone())?;
        let templates = factor(&problem.split, &self.pool)?;
        let mut probe = Stream::default();
        let twin = self.net_probe(&problem.split, &b0, &mut probe)?;
        let rp = self.replay_checked(&problem.split, &templates, &twin, &mut probe)?;
        let mut stages = plain.setups.clone();
        stages.extend_from_slice(&traced.setups);
        let mut counters = plain.counters.clone();
        counters.extend_from_slice(&traced.counters);
        let layers = Layers {
            stages,
            assignment: asg,
            factor_nnz: templates.iter().map(AsyncNode::work_nnz).sum(),
            replay: rp,
            counters,
            rounds_per_rhs: twin.rounds,
            inprocess_s: twin.inprocess_s,
            overhead_s: twin.process_s - twin.inprocess_s,
            untraced_tts: median(&plain.latencies),
            traced_tts: median(&traced.latencies),
            breakdowns: self.tr.breakdowns("request"),
            seq: sequential(&self.a, &b0)?,
        };
        let m = self.layer_metrics(&layers)?;
        Ok(self.finish(&[&plain, &traced, &probe], m))
    }

    // ------------------------------------------------------------------
    // dist: one setup, then a one-child UDS solve per request
    // ------------------------------------------------------------------

    /// A distributed solve over `processes` groups, run as `mode`.
    fn dist_config(&self, processes: usize, mode: RunMode) -> DistributedConfig {
        DistributedConfig {
            common: common(),
            mode,
            processes,
            topology: None,
            budget: REQUEST_BUDGET,
        }
    }

    fn socket_mode(&self) -> RunMode {
        RunMode::Processes {
            transport: dtm_net::TransportKind::Uds,
            child: self.opt.child.clone(),
            fail: None,
        }
    }

    /// Set up `SETUP_REPS` times; keep the last split and its factors.
    fn dist_setups(&mut self) -> Res<DistSetup> {
        let b0 = rhs(self.n(), self.opt.seed, 0);
        let mut stages = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            // One set of factors alive at a time.
            drop(last.take());
            let tr = &mut self.tr;
            let (asg, partition_s) =
                timed(|| tr.span("graph.partition", || partition(&self.a, self.w.parts)));
            let (problem, split_s) =
                timed(|| tr.span("graph.split", || split(&self.a, &b0, asg.clone())));
            let problem = problem?;
            let (nodes, factor_s) =
                timed(|| tr.span("sparse.factor", || factor(&problem.split, &self.pool)));
            stages.push(Stages {
                partition_s,
                split_s,
                factor_s,
            });
            last = Some((asg, problem.split, nodes?));
        }
        let (assignment, split, nodes) = last.ok_or("no setup ran")?;
        Ok(DistSetup {
            stages,
            assignment,
            split,
            nodes,
        })
    }

    /// Requests for `seconds`; with `twins`, each request is followed by
    /// its in-process twin, checked bit for bit.
    fn dist_stream(&mut self, base: &SplitSystem, seconds: f64, twins: bool) -> Res<Stream> {
        let mut s = Stream::default();
        let cfg = self.dist_config(WORKERS, self.socket_mode());
        let twin_cfg = self.dist_config(WORKERS, RunMode::InProcess);
        let parts = self.w.parts;
        let cpu0 = cpu_seconds()?;
        let start = Instant::now();
        let mut twin_s = 0.0;
        // Twins count against `seconds`, so a traced run stays as long as
        // a timed one; `window_s` leaves them out.
        while s.attempted == 0 || secs(start) < seconds {
            let b = self.next_b();
            let (a, tr) = (&self.a, &mut self.tr);
            let t0 = Instant::now();
            let root = tr.begin("request");
            let sys = tr.span("graph.rhs", || with_rhs(base, &b));
            let (report, work_s) =
                timed(|| tr.span("net.solve", || DistributedBackend.solve(&sys, None, &cfg)));
            let report = report.map_err(lib_err("distributed solve"))?;
            let v = tr.span("check.verify", || {
                verify(a, &b, &report.solution, report.converged)
            });
            tr.end(root);
            let latency = secs(t0);
            s.counters.push(Counters::of(&report, parts, work_s));
            s.attempted += 1;
            s.tally(v);
            if v == Verdict::Verified {
                s.latencies.push(latency);
            }
            if twins {
                let (twin, t) = timed(|| DistributedBackend.solve(&sys, None, &twin_cfg));
                let twin = twin.map_err(lib_err("in-process twin"))?;
                twin_s += t;
                s.twin_checks += 1;
                if !bitwise_equal(&report, &twin) {
                    s.twin_mismatches += 1;
                }
                s.net_inprocess.push(t);
                s.net_overhead.push(work_s - t);
            }
        }
        s.window_s = secs(start) - twin_s;
        s.cpu_s = cpu_seconds()? - cpu0;
        Ok(s)
    }

    fn dist_timed(&mut self) -> Res<Outcome> {
        let DistSetup {
            stages,
            split: split_sys,
            ..
        } = self.dist_setups()?;
        let mut s = self.dist_stream(&split_sys, self.opt.seconds, false)?;
        s.setups = stages;
        let m = s.end_to_end()?;
        Ok(self.finish(&[&s], m))
    }

    fn dist_traced(&mut self) -> Res<Outcome> {
        self.tr.set_enabled(true);
        let DistSetup {
            stages,
            assignment: asg,
            split: split_sys,
            nodes: templates,
        } = self.dist_setups()?;
        self.tr.set_enabled(false);
        let half = self.opt.seconds / 2.0;
        let plain = self.dist_stream(&split_sys, half, false)?;
        self.tr.set_enabled(true);
        let traced = self.dist_stream(&split_sys, half, true)?;
        self.tr.set_enabled(false);
        // The replay runs request 0's right-hand side, which the setup
        // split carries; its twin fixes the round count.
        let b0 = rhs(self.n(), self.opt.seed, 0);
        let mut probe = Stream::default();
        let twin = self.net_probe(&split_sys, &b0, &mut probe)?;
        let rp = self.replay_checked(&split_sys, &templates, &twin, &mut probe)?;
        let mut counters = plain.counters.clone();
        counters.extend_from_slice(&traced.counters);
        let layers = Layers {
            stages,
            assignment: asg,
            factor_nnz: templates.iter().map(AsyncNode::work_nnz).sum(),
            replay: rp,
            rounds_per_rhs: median(&counters.iter().map(|c| c.rounds).collect::<Vec<_>>()),
            counters,
            inprocess_s: median(&traced.net_inprocess),
            overhead_s: median(&traced.net_overhead),
            untraced_tts: median(&plain.latencies),
            traced_tts: median(&traced.latencies),
            breakdowns: self.tr.breakdowns("request"),
            seq: sequential(&self.a, &b0)?,
        };
        let m = self.layer_metrics(&layers)?;
        Ok(self.finish(&[&plain, &traced, &probe], m))
    }

    // ------------------------------------------------------------------
    // shared traced-run pieces
    // ------------------------------------------------------------------

    /// Solve `sys` once across processes and once in process with the
    /// same grouping; check the pair bit for bit. Then solve it over
    /// [`PARALLELISM`] child processes, whose waves cross peer links, and
    /// check that against the same twin: the round executor's result does
    /// not depend on the grouping.
    fn net_probe(&self, sys: &SplitSystem, b: &[f64], probe: &mut Stream) -> Res<Twin> {
        let (multi, process_s) = timed(|| {
            DistributedBackend.solve(sys, None, &self.dist_config(WORKERS, self.socket_mode()))
        });
        let multi = multi.map_err(lib_err("distributed probe"))?;
        let (single, inprocess_s) = timed(|| {
            DistributedBackend.solve(sys, None, &self.dist_config(WORKERS, RunMode::InProcess))
        });
        let single = single.map_err(lib_err("in-process probe"))?;
        let peers = DistributedBackend
            .solve(
                sys,
                None,
                &self.dist_config(PARALLELISM, self.socket_mode()),
            )
            .map_err(lib_err("peer-linked probe"))?;
        for run in [&multi, &peers] {
            probe.attempted += 1;
            probe.tally(verify(&self.a, b, &run.solution, run.converged));
            probe.twin_checks += 1;
            if !bitwise_equal(run, &single) {
                probe.twin_mismatches += 1;
            }
        }
        Ok(Twin {
            rounds: multi.total_solves as f64 / sys.n_parts() as f64,
            process_s,
            inprocess_s,
            solution: single.solution,
        })
    }

    /// Replay the twin's rounds over scalar templates; the replay must end
    /// in the round executor's exact state.
    fn replay_checked(
        &self,
        sys: &SplitSystem,
        templates: &[NodeRuntime],
        twin: &Twin,
        probe: &mut Stream,
    ) -> Res<ReplayStats> {
        let groups = group_assignment(sys.n_parts(), WORKERS);
        let rp = replay(sys, templates, twin.rounds as u64, &groups)?;
        probe.twin_checks += 1;
        if !same_bits(&rp.solution, &twin.solution) {
            probe.twin_mismatches += 1;
        }
        Ok(rp)
    }

    fn layer_metrics(&self, l: &Layers) -> Res<Vec<Metric>> {
        let pm = gpart::metrics(&self.a, &l.assignment);
        let col = |f: fn(&Stages) -> f64| median(&l.stages.iter().map(f).collect::<Vec<_>>());
        let rp = &l.replay;
        let step_s = median(&rp.step_ns) * 1e-9;
        let send_s = median(&rp.send_ns) * 1e-9;
        let absorb_s = median(&rp.absorb_ns) * 1e-9;
        let step_total_ns: f64 = rp.step_ns.iter().sum();
        let frames = rp.encode_ns.len().max(1) as f64;
        let mut m = vec![
            Metric::new("graph.partition_s", "s", col(|s| s.partition_s)),
            Metric::new("graph.split_s", "s", col(|s| s.split_s)),
            Metric::new("graph.cut_edges", "count", pm.cut_edges as f64),
            Metric::new(
                "graph.boundary_vertices",
                "count",
                pm.boundary_vertices as f64,
            ),
            Metric::new("sparse.factor_s", "s", col(|s| s.factor_s)),
            Metric::new("sparse.factor_nnz", "count", l.factor_nnz as f64),
            Metric::new("sparse.step_us", "us", step_s * 1e6),
            Metric::new(
                "sparse.step_gflops",
                "GFLOP/s",
                rp.flops as f64 / step_total_ns,
            ),
            Metric::new("sparse.seq_cg_s", "s", l.seq.cg_s),
            Metric::new("sparse.seq_cg_iters", "count", l.seq.cg_iters),
            Metric::new("sparse.seq_cholesky_s", "s", l.seq.cholesky_s),
            Metric::new("sparse.dtm_over_cg", "ratio", l.untraced_tts / l.seq.cg_s),
        ];
        let pick = |f: fn(&Counters) -> f64| l.counters.iter().map(f).collect::<Vec<_>>();
        let (q1, q2, q3) = quartiles(&pick(|c| c.solves));
        let busy: Vec<f64> = l
            .counters
            .iter()
            .map(|c| {
                (c.solves * step_s + c.msgs * (send_s + absorb_s)) / (WORKERS as f64 * c.work_s)
            })
            .collect();
        m.extend([
            Metric::new("core.solves_per_rhs", "count", q2),
            Metric::new("core.solves_iqr_frac", "frac", (q3 - q1) / q2),
            Metric::new("core.msgs_per_rhs", "count", median(&pick(|c| c.msgs))),
            Metric::new("core.flops_per_rhs", "count", median(&pick(|c| c.flops))),
            Metric::new("core.busy_frac", "frac", median(&busy)),
        ]);
        let unattributed: Vec<f64> = l
            .breakdowns
            .iter()
            .map(|b| b.unattributed_s / b.wall_s)
            .collect();
        if unattributed.is_empty() {
            return Err("traced run recorded no request".into());
        }
        m.extend([
            Metric::new("core.absorb_us", "us", absorb_s * 1e6),
            Metric::new("core.send_us", "us", send_s * 1e6),
            Metric::new("net.rounds_per_rhs", "count", l.rounds_per_rhs),
            Metric::new("net.wire_bytes_per_rhs", "B", rp.wire_bytes as f64),
            Metric::new(
                "net.encode_us_per_frame",
                "us",
                rp.encode_ns.iter().sum::<f64>() / frames * 1e-3,
            ),
            Metric::new(
                "net.decode_us_per_frame",
                "us",
                rp.decode_ns.iter().sum::<f64>() / frames * 1e-3,
            ),
            Metric::new("net.inprocess_s", "s", l.inprocess_s),
            Metric::new("net.overhead_s", "s", l.overhead_s),
            Metric::new(
                "trace.overhead_frac",
                "frac",
                l.traced_tts / l.untraced_tts - 1.0,
            ),
            Metric::new("trace.unattributed_frac", "frac", median(&unattributed)),
        ]);
        print_breakdown(self.w.name, &l.breakdowns);
        Ok(m)
    }
}

/// The last of the distributed workload's setups, with every setup's
/// stage times.
struct DistSetup {
    stages: Vec<Stages>,
    assignment: Vec<usize>,
    split: SplitSystem,
    nodes: Vec<NodeRuntime>,
}

/// A multi-process run and its in-process twin.
struct Twin {
    rounds: f64,
    process_s: f64,
    inprocess_s: f64,
    solution: Vec<f64>,
}

fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Solution bits, residual bits, counters and convergence all equal.
fn bitwise_equal(x: &SolveReport, y: &SolveReport) -> bool {
    same_bits(&x.solution, &y.solution)
        && x.final_residual.to_bits() == y.final_residual.to_bits()
        && x.total_solves == y.total_solves
        && x.total_messages == y.total_messages
        && x.total_flops == y.total_flops
        && x.converged == y.converged
}

/// One-thread Jacobi-PCG and whole-system RCM Cholesky on `(a, b)`, each
/// timed as a median over repetitions and checked against [`TOL`].
fn sequential(a: &Csr, b: &[f64]) -> Res<Sequential> {
    let cfg = IterConfig::with_rtol(TOL).max_iter(100_000);
    let mut cg_t = Vec::new();
    let mut iters = 0.0;
    let start = Instant::now();
    while cg_t.len() < 5 || (cg_t.len() < 51 && secs(start) < 1.0) {
        let (r, t) = timed(|| cg::solve_jacobi_pc(a, b, &cfg));
        if !r.converged || rel_residual(a, b, &r.x) > TOL {
            return Err("Jacobi-PCG missed the tolerance".into());
        }
        iters = r.iterations as f64;
        cg_t.push(t);
    }
    let mut chol_t = Vec::new();
    for _ in 0..3 {
        let (x, t) = timed(|| SparseCholesky::factor_rcm(a).map(|f| f.solve(b)));
        let x = x.map_err(lib_err("sequential Cholesky"))?;
        if rel_residual(a, b, &x) > TOL {
            return Err("sequential Cholesky missed the tolerance".into());
        }
        chol_t.push(t);
    }
    Ok(Sequential {
        cg_s: median(&cg_t),
        cg_iters: iters,
        cholesky_s: median(&chol_t),
    })
}

/// Print the median layer self times of the traced unit (diagnostic
/// lines; the result line comes last).
fn print_breakdown(workload: &str, bds: &[Breakdown]) {
    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for b in bds {
        for (k, v) in &b.layers {
            layers.entry(k).or_default().push(*v);
        }
    }
    let walls: Vec<f64> = bds.iter().map(|b| b.wall_s).collect();
    let un: Vec<f64> = bds.iter().map(|b| b.unattributed_s).collect();
    println!(
        "# {workload}: traced units {}, median wall {:.6} s",
        bds.len(),
        median(&walls)
    );
    for (k, v) in &layers {
        println!("#   self {k:<10} {:.6} s", median(v));
    }
    println!("#   self {:<10} {:.6} s", "unattributed", median(&un));
}
