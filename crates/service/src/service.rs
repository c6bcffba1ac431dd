//! The in-process policy server: tiered lookup + deterministic
//! batched solving.
//!
//! ## Serving pipeline
//!
//! A batch is served in three phases:
//!
//! 1. **Probe (serial, request order)** — validate, canonicalize
//!    (sorted budgets + permutation + tolerance tier), then probe the
//!    exact-match LRU; a miss queues a solve. Queued solves are
//!    deduplicated within the batch: two requests that canonicalize to
//!    the same key share one solve.
//! 2. **Solve (parallel)** — pending solves fan out over
//!    `econcast-parallel` workers, each worker owning one reusable
//!    [`SolverPool`] (a `P4Solver` workspace per node count).
//!    Homogeneous instances use the scalar-dual closed form; the
//!    sorted heterogeneous instances run the exact dual descent with
//!    `tol` set to the request's tolerance tier.
//! 3. **Publish (serial, request order)** — solved policies are
//!    inserted into the LRU (canonical order, so any permutation of
//!    the instance hits them later) and every response is rotated back
//!    into its caller's node order.
//!
//! ## Determinism
//!
//! Responses are **bit-identical at any worker count**: each solve is
//! an independent, self-contained computation (workspace reuse leaks
//! no state — pinned by statespace's tests), the probe/publish phases
//! run serially in request order, and worker count only changes *who*
//! computes a job, never *what* it computes.

use crate::cache::{CachedPolicy, LruCache};
use crate::request::{NodePolicy, PolicyRequest, PolicyResponse, ServiceError};
use crate::stats::ServiceStats;
use econcast_core::NodeParams;
use econcast_metrics::{
    MetricsSnapshot, CTR_BATCHES, CTR_BATCH_DEDUP_HITS, CTR_BYTE_EVICTIONS, CTR_CLOSED_FORM_HITS,
    CTR_ERRORS, CTR_EXACT_HITS, CTR_EXACT_HITS_CLOSED_FORM, CTR_EXACT_HITS_FACTORIZED,
    CTR_LRU_EVICTIONS, CTR_LRU_INSERTS, CTR_REQUESTS, CTR_SOLVER_SOLVES, GAUGE_LRU_BYTES,
    GAUGE_LRU_ENTRIES, NUM_COUNTERS,
};
use econcast_oracle::{certificate_for, certificate_for_homogeneous};
use econcast_proto::service::{PolicyKernel, ServedTier};
use econcast_statespace::{
    CanonicalInstance, HomogeneousP4, KernelSelect, P4Options, SolverPool, SummaryKernel,
};
use std::collections::HashMap;

/// Tuning knobs for a [`PolicyService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Exact-tier capacity (entries).
    pub lru_capacity: usize,
    /// Worker count for the solve phase; `None` follows
    /// `econcast_parallel::effective_threads`. Results are
    /// bit-identical either way.
    pub workers: Option<usize>,
    /// Exact-tier byte budget (`None` = unbounded): an approximate
    /// ceiling on resident LRU bytes. Past it the LRU evicts —
    /// size-aware, LRU-first — to fit, counting those evictions in
    /// `ServiceStats::byte_evictions`. The entry-count
    /// [`lru_capacity`](Self::lru_capacity) still applies; whichever
    /// bound bites first wins. A budget changes only which requests
    /// replay from the cache, never an answer's bits: a miss re-runs
    /// the same deterministic solve that produced the evicted entry.
    pub max_cache_bytes: Option<usize>,
    /// Admission-queue capacity (requests) in front of `serve_batch`
    /// on the socket server. Past it, callers get an explicit
    /// `Overloaded { retry_after_us }` — never a silent drop or
    /// reset. The in-process `serve_batch` path is unaffected (closed-loop, the
    /// caller *is* the queue).
    pub queue_capacity: usize,
    /// Longest a request may wait in the admission queue before the
    /// shed ladder treats the queue as saturated; also the implied
    /// deadline for requests that carry none. Feeds the
    /// `retry_after_us` drain estimate on rejects.
    pub max_queue_delay: std::time::Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            lru_capacity: 1024,
            workers: None,
            max_cache_bytes: None,
            queue_capacity: 256,
            max_queue_delay: std::time::Duration::from_millis(50),
        }
    }
}

/// Largest heterogeneous *groupput* instance the exact solver
/// accepts. Since the factorized kernel replaced enumeration on this
/// path the ceiling is a latency budget, not a memory wall: a groupput
/// solve is O(N) per dual iteration, so it comfortably serves
/// N ∈ {24, 32, 64, 256} where the old `2^N` tables stopped at 16.
pub const MAX_EXACT_NODES: usize = 256;

/// Largest heterogeneous *anyput* instance the exact solver accepts.
/// Anyput's factorized evaluation is O(N) per dual iteration like
/// groupput, but its marginal pass runs more exponentials per node,
/// so it caps lower: at the largest size the end-to-end tests pin.
pub const MAX_ANYPUT_NODES: usize = 64;

/// What the probe phase decided for one request.
///
/// Queued plans carry the *request's own* canonicalization: two
/// requests sharing one solve still differ in their permutations, and
/// each response must be rotated back into its own caller's node
/// order.
enum Plan {
    /// Answered without solving (tier hit) or rejected.
    Done(Result<PolicyResponse, ServiceError>),
    /// Waits for `jobs[i]`, which this request enqueued.
    Job(usize, CanonicalInstance),
    /// Waits for `jobs[i]`, enqueued by an earlier request with the
    /// same canonical key.
    Alias(usize, CanonicalInstance),
}

/// How a queued solve runs.
#[derive(Clone, Copy)]
enum JobKind {
    /// Exact dual descent on the sorted instance.
    Exact(P4Options),
    /// Homogeneous scalar-dual bisection.
    ClosedForm,
}

/// One queued solve.
struct SolveJob {
    /// Node parameters in canonical order.
    nodes: Vec<NodeParams>,
    sigma: f64,
    mode: econcast_core::ThroughputMode,
    kind: JobKind,
}

impl SolveJob {
    fn run(&self, pool: &mut SolverPool) -> CachedPolicy {
        match self.kind {
            JobKind::Exact(opts) => {
                let sol = pool.solve(&self.nodes, self.sigma, self.mode, opts);
                let certificate = certificate_for(&self.nodes, self.sigma, self.mode, &sol);
                CachedPolicy {
                    alpha: sol.alpha,
                    beta: sol.beta,
                    throughput: sol.throughput,
                    converged: sol.converged,
                    kernel: match sol.kernel {
                        SummaryKernel::GrayCode => PolicyKernel::GrayCode,
                        SummaryKernel::Factorized => PolicyKernel::Factorized,
                        SummaryKernel::Homogeneous => PolicyKernel::ClosedForm,
                    },
                    certificate,
                }
            }
            JobKind::ClosedForm => {
                let n = self.nodes.len();
                let params = self.nodes[0];
                let sol = HomogeneousP4::new(n, params, self.sigma, self.mode).solve();
                let certificate =
                    certificate_for_homogeneous(n, &params, self.sigma, self.mode, &sol);
                CachedPolicy {
                    alpha: vec![sol.alpha; n],
                    beta: vec![sol.beta; n],
                    throughput: sol.throughput,
                    converged: true,
                    kernel: PolicyKernel::ClosedForm,
                    certificate,
                }
            }
        }
    }

    fn tier(&self) -> ServedTier {
        match self.kind {
            JobKind::Exact(_) => ServedTier::Solver,
            JobKind::ClosedForm => ServedTier::ClosedForm,
        }
    }
}

/// The in-process policy server.
#[derive(Debug)]
pub struct PolicyService {
    cfg: ServiceConfig,
    lru: LruCache,
    /// One solver workspace pool per worker slot, reused across
    /// batches.
    scratch: Vec<SolverPool>,
    /// This service's counters, each under its registry slot. Only
    /// `&mut self` reaches them, so counting is a plain add; the LRU
    /// holds its own eviction counts.
    counters: [u64; NUM_COUNTERS],
    /// This service's latency histograms: a process running several
    /// servers reports each one's latencies from that server alone.
    latency: econcast_metrics::LatencyHists,
}

impl Default for PolicyService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl PolicyService {
    /// Creates a service with the given configuration.
    pub fn new(cfg: ServiceConfig) -> Self {
        PolicyService {
            lru: LruCache::with_byte_budget(cfg.lru_capacity, cfg.max_cache_bytes),
            scratch: Vec::new(),
            counters: [0; NUM_COUNTERS],
            latency: econcast_metrics::LatencyHists::default(),
            cfg,
        }
    }

    /// The per-tier counters: the serving-counter view of
    /// [`metrics`](Self::metrics).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::from_snapshot(&self.metrics())
    }

    /// This service's counters, the LRU's eviction counts and gauges,
    /// and the latency histograms as a registry-shaped metrics scrape.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::zeroed();
        snap.counters.copy_from_slice(&self.counters);
        snap.counters[CTR_LRU_EVICTIONS] = self.lru.evictions();
        snap.counters[CTR_BYTE_EVICTIONS] = self.lru.byte_evictions();
        snap.gauges[GAUGE_LRU_ENTRIES].1 = self.lru.len() as u64;
        snap.gauges[GAUGE_LRU_BYTES].1 = self.cache_bytes() as u64;
        self.latency.fill(&mut snap);
        snap
    }

    /// Approximate resident exact-tier bytes — the quantity
    /// [`ServiceConfig::max_cache_bytes`] bounds.
    pub fn cache_bytes(&self) -> usize {
        self.lru.bytes()
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Serves one request (a batch of one).
    pub fn serve(&mut self, req: &PolicyRequest) -> Result<PolicyResponse, ServiceError> {
        self.serve_batch(std::slice::from_ref(req))
            .pop()
            .expect("one request in, one response out")
    }

    /// Serves a batch: independent solves fan out across the worker
    /// pool; responses come back in request order, each in its
    /// caller's node order. Takes the requests by reference (a slice,
    /// a `&Vec`, or any exact-size iterator of references), so a
    /// caller serving a view of a larger batch copies nothing.
    pub fn serve_batch<'a, I>(&mut self, reqs: I) -> Vec<Result<PolicyResponse, ServiceError>>
    where
        I: IntoIterator<Item = &'a PolicyRequest>,
        I::IntoIter: ExactSizeIterator,
    {
        let reqs = reqs.into_iter();
        let _serve = econcast_trace::trace_span!(
            "service",
            "serve_batch",
            "requests" => reqs.len() as u64
        );
        self.counters[CTR_BATCHES] += 1;
        self.counters[CTR_REQUESTS] += reqs.len() as u64;
        let t0 = std::time::Instant::now();

        // Phase 1: probe tiers, queue deduplicated solves.
        let mut plans: Vec<Plan> = Vec::with_capacity(reqs.len());
        let mut jobs: Vec<SolveJob> = Vec::new();
        let mut pending: HashMap<econcast_statespace::InstanceKey, usize> = HashMap::new();
        {
            let _probe = econcast_trace::trace_span!("service", "probe");
            for req in reqs {
                plans.push(self.probe(req, &mut jobs, &mut pending));
            }
        }
        let results = self.solve_and_publish(plans, jobs);
        record_batch_metrics(&self.latency, t0, results.len());
        results
    }

    /// Phases 2 and 3: solve the queued jobs, then publish.
    fn solve_and_publish(
        &mut self,
        plans: Vec<Plan>,
        jobs: Vec<SolveJob>,
    ) -> Vec<Result<PolicyResponse, ServiceError>> {
        // Phase 2: fan the queued solves out over per-worker solver
        // pools. Job assignment is round-robin by job index; each
        // job's computation is identical at every worker count.
        let workers = self
            .cfg
            .workers
            .unwrap_or_else(|| econcast_parallel::effective_threads(jobs.len()))
            .clamp(1, jobs.len().max(1));
        while self.scratch.len() < workers {
            self.scratch.push(SolverPool::new());
        }
        let jobs_ref = &jobs;
        let solved: Vec<Vec<(usize, CachedPolicy)>> =
            econcast_parallel::run_on_slices(&mut self.scratch[..workers], workers, |w, pool| {
                let mut acc = Vec::new();
                let mut j = w;
                while j < jobs_ref.len() {
                    // Complete ("X") events, not begin/end: solve
                    // workers are fresh scoped threads, so B/E pairs
                    // here would make the trace's nesting structure
                    // depend on the worker count.
                    let t0 = econcast_trace::armed_now();
                    let policy = jobs_ref[j].run(pool);
                    econcast_trace::complete_from(
                        "service",
                        kernel_span_name(policy.kernel),
                        t0,
                        &[("job", j as u64), ("n", jobs_ref[j].nodes.len() as u64)],
                    );
                    acc.push((j, policy));
                    j += workers;
                }
                acc
            });
        let mut results: Vec<Option<CachedPolicy>> = vec![None; jobs.len()];
        for (j, policy) in solved.into_iter().flatten() {
            results[j] = Some(policy);
        }

        // Phase 3: publish — count tiers, fill the LRU (once per
        // unique key, in job order == first-request order), and rotate
        // every response back into caller order.
        let _publish = econcast_trace::trace_span!(
            "service",
            "publish",
            "jobs" => jobs.len() as u64
        );
        let mut inserted: Vec<bool> = vec![false; jobs.len()];
        let mut out = Vec::with_capacity(plans.len());
        for plan in plans {
            match plan {
                Plan::Done(r) => out.push(r),
                Plan::Job(j, ref canon) | Plan::Alias(j, ref canon) => {
                    let job = &jobs[j];
                    let policy = results[j].as_ref().expect("every job ran");
                    if let Plan::Job(..) = plan {
                        match job.kind {
                            JobKind::Exact(_) => self.counters[CTR_SOLVER_SOLVES] += 1,
                            JobKind::ClosedForm => self.counters[CTR_CLOSED_FORM_HITS] += 1,
                        }
                    } else {
                        self.counters[CTR_BATCH_DEDUP_HITS] += 1;
                    }
                    if !inserted[j] {
                        inserted[j] = true;
                        self.lru.insert(canon.key.clone(), policy.clone());
                        self.counters[CTR_LRU_INSERTS] += 1;
                    }
                    out.push(Ok(respond(canon, policy, job.tier())));
                }
            }
        }
        out
    }

    /// Phase-1 logic for one request: validate, canonicalize, probe.
    fn probe(
        &mut self,
        req: &PolicyRequest,
        jobs: &mut Vec<SolveJob>,
        pending: &mut HashMap<econcast_statespace::InstanceKey, usize>,
    ) -> Plan {
        if let Err(e) = req.validate() {
            self.counters[CTR_ERRORS] += 1;
            return Plan::Done(Err(e));
        }
        let canon = CanonicalInstance::new(
            &req.budgets_w,
            req.listen_w,
            req.transmit_w,
            req.sigma,
            req.objective,
            req.tolerance,
        );
        // Tier 1: exact-match LRU. The hit counter splits by the
        // kernel that originally produced the entry, so the exact
        // tier's behaviour at large N (factorized-solved entries) is
        // observable apart from the closed-form traffic.
        if let Some(hit) = self.lru.get(&canon.key) {
            self.counters[CTR_EXACT_HITS] += 1;
            match hit.kernel {
                PolicyKernel::ClosedForm => self.counters[CTR_EXACT_HITS_CLOSED_FORM] += 1,
                PolicyKernel::Factorized => self.counters[CTR_EXACT_HITS_FACTORIZED] += 1,
                PolicyKernel::GrayCode => {}
            }
            let resp = respond(&canon, hit, ServedTier::Exact);
            econcast_trace::trace_instant!("service", "tier_exact");
            return Plan::Done(Ok(resp));
        }

        // Heterogeneous instances beyond the solver's latency ceiling
        // have no tier left. The ceiling is mode-aware: anyput runs
        // more exponentials per node, so it caps lower than groupput.
        let ceiling = match req.objective {
            econcast_core::ThroughputMode::Groupput => MAX_EXACT_NODES,
            econcast_core::ThroughputMode::Anyput => MAX_ANYPUT_NODES,
        };
        if !canon.homogeneous && canon.sorted_budgets.len() > ceiling {
            self.counters[CTR_ERRORS] += 1;
            return Plan::Done(Err(ServiceError::TooLarge {
                n: canon.sorted_budgets.len(),
                max: ceiling,
            }));
        }

        // Homogeneous closed form or the exact solver —
        // queued, deduplicated by canonical key.
        if let Some(&j) = pending.get(&canon.key) {
            econcast_trace::trace_instant!("service", "tier_dedup");
            return Plan::Alias(j, canon);
        }
        let kind = if canon.homogeneous {
            econcast_trace::trace_instant!("service", "tier_closed_form");
            JobKind::ClosedForm
        } else {
            econcast_trace::trace_instant!("service", "tier_solver");
            JobKind::Exact(P4Options {
                max_iters: 30_000,
                tol: canon.tolerance_tier,
                step0: 2.0,
                // Heterogeneous by construction here; Auto resolves to
                // the factorized kernel (groupput, and anyput beyond
                // the small-N Gray-code regime) deterministically.
                kernel: KernelSelect::Auto,
            })
        };
        let nodes: Vec<NodeParams> = canon
            .sorted_budgets
            .iter()
            .map(|&rho| NodeParams::new(rho, req.listen_w, req.transmit_w))
            .collect();
        let job = SolveJob {
            nodes,
            sigma: req.sigma,
            mode: req.objective,
            kind,
        };
        let j = jobs.len();
        pending.insert(canon.key.clone(), j);
        jobs.push(job);
        Plan::Job(j, canon)
    }
}

/// The trace span name for a solve that ran on `kernel` — the solve
/// phase's "X" events are labelled by the kernel that actually
/// executed, so a Perfetto timeline separates Gray-code, factorized,
/// and closed-form time at a glance.
fn kernel_span_name(kernel: PolicyKernel) -> &'static str {
    match kernel {
        PolicyKernel::GrayCode => "solve_graycode",
        PolicyKernel::Factorized => "solve_factorized",
        PolicyKernel::ClosedForm => "solve_closed_form",
    }
}

/// Always-on metrics for one served batch: the service's two latency
/// histograms (the batch's request, batch and error counts are the
/// service's own counters). Two relaxed atomics amortized over the
/// whole batch, skipped while recording is off — the cost the
/// `warm_rps_metrics_on` bench row holds within noise of the
/// unrecorded path. Unlike trace spans, which are armed on demand, this
/// is unconditional in production; `set_recording(false)` exists for the
/// bench harness to measure the difference, not as an operating mode.
fn record_batch_metrics(
    latency: &econcast_metrics::LatencyHists,
    t0: std::time::Instant,
    requests: usize,
) {
    let elapsed = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    latency.record_batch(elapsed, requests as u64);
}

/// Builds a caller-order response from a canonical-order policy.
fn respond(canon: &CanonicalInstance, policy: &CachedPolicy, tier: ServedTier) -> PolicyResponse {
    let mut policies = vec![
        NodePolicy {
            listen: 0.0,
            transmit: 0.0
        };
        canon.perm.len()
    ];
    for ((&caller_idx, &listen), &transmit) in
        canon.perm.iter().zip(&policy.alpha).zip(&policy.beta)
    {
        policies[caller_idx] = NodePolicy { listen, transmit };
    }
    PolicyResponse {
        policies,
        throughput: policy.throughput,
        tier,
        kernel: policy.kernel,
        converged: policy.converged,
        certificate: policy.certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PolicyRequest;
    use econcast_core::ThroughputMode::{Anyput, Groupput};

    const L: f64 = 500e-6;
    const X: f64 = 500e-6;

    fn het_request(budgets: &[f64], tol: f64) -> PolicyRequest {
        PolicyRequest {
            budgets_w: budgets.to_vec(),
            listen_w: L,
            transmit_w: X,
            sigma: 0.5,
            objective: Groupput,
            tolerance: tol,
        }
    }

    fn service() -> PolicyService {
        PolicyService::new(ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn permuted_budgets_keep_caller_order() {
        // Satellite regression: sorting budgets for the cache key must
        // not change which node each returned policy maps to.
        let mut svc = service();
        let a = het_request(&[5e-6, 20e-6, 10e-6], 1e-2);
        let b = het_request(&[10e-6, 5e-6, 20e-6], 1e-2);
        let ra = svc.serve(&a).unwrap();
        let rb = svc.serve(&b).unwrap();
        assert_eq!(rb.tier, ServedTier::Exact, "permutation is a cache hit");
        // Same budget value ⇒ bit-identical policy, at its own index.
        for (i, &rho_a) in a.budgets_w.iter().enumerate() {
            let j = b.budgets_w.iter().position(|&r| r == rho_a).unwrap();
            assert_eq!(
                ra.policies[i].listen.to_bits(),
                rb.policies[j].listen.to_bits()
            );
            assert_eq!(
                ra.policies[i].transmit.to_bits(),
                rb.policies[j].transmit.to_bits()
            );
        }
        // And richer nodes are more active — the policy really does
        // follow the budget, not the position.
        let idx_min = 0; // 5 µW in request a
        let idx_max = 1; // 20 µW in request a
        let awake = |p: &crate::request::NodePolicy| p.listen + p.transmit;
        assert!(awake(&ra.policies[idx_max]) > awake(&ra.policies[idx_min]));
    }

    #[test]
    fn colliding_route_hashes_never_alias_in_a_batch() {
        // Two distinct instances with equal route hashes: in-batch
        // dedup and the LRU key on full equality, so each answer keeps
        // its own bits, exactly as served alone.
        let (a, b) = crate::cache::collision::colliding_budgets();
        let batch = [
            het_request(&a, 1e-2),
            het_request(&b, 1e-2),
            het_request(&[a[1], a[0]], 1e-2),
            het_request(&[b[1], b[0]], 1e-2),
        ];
        let alone: Vec<PolicyResponse> =
            batch.iter().map(|r| service().serve(r).unwrap()).collect();
        assert_ne!(alone[0].throughput.to_bits(), alone[1].throughput.to_bits());
        let mut svc = service();
        for round in 0..2 {
            let out = svc.serve_batch(&batch);
            for (got, want) in out.iter().zip(&alone) {
                let got = got.as_ref().unwrap();
                assert_eq!(got.throughput.to_bits(), want.throughput.to_bits());
                for (g, w) in got.policies.iter().zip(&want.policies) {
                    assert_eq!(g.listen.to_bits(), w.listen.to_bits(), "round {round}");
                    assert_eq!(g.transmit.to_bits(), w.transmit.to_bits());
                }
            }
        }
        let s = svc.stats();
        assert_eq!(s.solver_solves, 2, "one solve per distinct instance");
        assert_eq!(s.batch_dedup_hits, 2, "only true permutations alias");
        assert_eq!(s.exact_hits, 4, "the replay hits both entries");
    }

    #[test]
    fn in_batch_duplicates_are_deduplicated() {
        let mut svc = service();
        let r1 = het_request(&[5e-6, 10e-6, 20e-6], 1e-2);
        let r2 = het_request(&[20e-6, 5e-6, 10e-6], 1e-2); // permutation
        let out = svc.serve_batch(&[r1.clone(), r2.clone(), r1.clone()]);
        assert!(out.iter().all(|r| r.is_ok()));
        let s = svc.stats();
        assert_eq!(s.solver_solves, 1, "one canonical solve for all three");
        assert_eq!(s.batch_dedup_hits, 2);
        assert_eq!(s.lru_inserts, 1);
        // The aliased permutation must still answer in *its own* node
        // order: same budget value ⇒ bit-identical policy.
        let (o1, o2) = (out[0].as_ref().unwrap(), out[1].as_ref().unwrap());
        for (i, &rho) in r1.budgets_w.iter().enumerate() {
            let j = r2.budgets_w.iter().position(|&r| r == rho).unwrap();
            assert_eq!(
                o1.policies[i].listen.to_bits(),
                o2.policies[j].listen.to_bits(),
                "alias response must follow the alias's budget order"
            );
        }
    }

    #[test]
    fn homogeneous_requests_avoid_the_enumeration_solver() {
        let mut svc = service();
        let req = PolicyRequest::homogeneous(
            500,
            econcast_core::NodeParams::from_microwatts(10.0, 500.0, 500.0),
            0.5,
            Groupput,
            1e-3,
        );
        let resp = svc.serve(&req).unwrap();
        assert_eq!(resp.tier, ServedTier::ClosedForm);
        assert_eq!(resp.kernel, PolicyKernel::ClosedForm);
        assert_eq!(svc.stats().solver_solves, 0);
        assert!(resp.converged);
        assert!(resp.throughput > 0.0);
        // Certificate sandwich holds.
        let c = &resp.certificate;
        assert!(c.t_sigma <= c.oracle + 1e-9 && c.oracle <= c.dual_upper + 1e-9);
    }

    #[test]
    fn oversize_heterogeneous_is_rejected() {
        // The default ceiling is a latency budget now (256, not the
        // old 2^N wall at 16) — requests beyond it still get a typed
        // error, not a panic.
        let mut svc = service();
        let budgets: Vec<f64> = (0..300).map(|i| 1e-6 * (i + 1) as f64).collect();
        let err = svc.serve(&het_request(&budgets, 1e-2)).unwrap_err();
        assert_eq!(err, ServiceError::TooLarge { n: 300, max: 256 });
        assert_eq!(svc.stats().errors, 1);
        // Anyput's ceiling is lower, so the mode-aware ceiling
        // rejects sizes the groupput path would accept.
        let anyput_100 = PolicyRequest {
            objective: Anyput,
            ..het_request(
                &(0..100).map(|i| 1e-6 * (i + 1) as f64).collect::<Vec<_>>(),
                1e-2,
            )
        };
        let err = svc.serve(&anyput_100).unwrap_err();
        assert_eq!(err, ServiceError::TooLarge { n: 100, max: 64 });
    }

    #[test]
    fn invalid_requests_are_rejected_not_panicked() {
        let mut svc = service();
        for bad in [
            het_request(&[], 1e-2),
            het_request(&[-1e-6], 1e-2),
            het_request(&[1e-6], 0.0),
            PolicyRequest {
                sigma: f64::NAN,
                ..het_request(&[1e-6, 2e-6], 1e-2)
            },
        ] {
            assert!(matches!(svc.serve(&bad), Err(ServiceError::BadRequest(_))));
        }
        assert_eq!(svc.stats().errors, 4);
    }

    #[test]
    fn anyput_and_groupput_do_not_share_entries() {
        let mut svc = service();
        // n = 3: groupput and anyput genuinely differ (at n = 2 every
        // delivery reaches exactly one listener and the two coincide).
        let g = het_request(&[5e-6, 10e-6, 20e-6], 1e-2);
        let a = PolicyRequest {
            objective: Anyput,
            ..g.clone()
        };
        let rg = svc.serve(&g).unwrap();
        let ra = svc.serve(&a).unwrap();
        assert_eq!(svc.stats().exact_hits, 0, "different objectives, no hit");
        assert!(ra.throughput <= 1.0 + 1e-9);
        assert!(rg.throughput != ra.throughput);
    }

    #[test]
    fn byte_budget_bounds_the_cache_across_tiers() {
        // Calibrate one entry's cost on an unbudgeted twin.
        let mut probe = service();
        probe.serve(&het_request(&[5e-6, 10e-6], 1e-2)).unwrap();
        let unit = probe.cache_bytes();
        assert!(unit > 0);

        // Room for two entries.
        let budget = 2 * unit + unit / 2;
        let mut svc = PolicyService::new(ServiceConfig {
            workers: Some(1),
            max_cache_bytes: Some(budget),
            ..ServiceConfig::default()
        });
        let reqs: Vec<PolicyRequest> = (0..3)
            .map(|k| het_request(&[(5 + k) as f64 * 1e-6, (10 + k) as f64 * 1e-6], 1e-2))
            .collect();
        for req in &reqs {
            svc.serve(req).unwrap();
        }
        let s = svc.stats();
        assert_eq!(s.lru_len, 2, "budget holds two entries");
        assert_eq!(s.byte_evictions, 1, "third insert evicted the oldest");
        assert_eq!(s.lru_evictions, 1);
        assert!(svc.cache_bytes() <= budget);
        // The oldest entry is the one that went: re-serving it solves
        // again, the newer two replay from the exact tier.
        assert_eq!(svc.serve(&reqs[2]).unwrap().tier, ServedTier::Exact);
        assert_eq!(svc.serve(&reqs[0]).unwrap().tier, ServedTier::Solver);

        // Closed-form entries charge the same budget as solver ones: a
        // two-node closed form costs what a two-node solver entry does,
        // so it evicts the least recently used entry and the total
        // stays bounded.
        let homo = PolicyRequest::homogeneous(
            2,
            econcast_core::NodeParams::from_microwatts(10.0, 500.0, 500.0),
            0.5,
            Groupput,
            1e-2,
        );
        assert_eq!(svc.serve(&homo).unwrap().tier, ServedTier::ClosedForm);
        let s = svc.stats();
        assert_eq!(s.lru_len, 2);
        assert_eq!(s.byte_evictions, 3);
        assert!(svc.cache_bytes() <= budget);
        assert_eq!(svc.serve(&homo).unwrap().tier, ServedTier::Exact);
        assert_eq!(svc.serve(&reqs[2]).unwrap().tier, ServedTier::Solver);
    }

    #[test]
    fn lru_eviction_forces_resolve() {
        let mut svc = PolicyService::new(ServiceConfig {
            lru_capacity: 1,
            workers: Some(1),
            ..ServiceConfig::default()
        });
        let r1 = het_request(&[5e-6, 10e-6], 1e-2);
        let r2 = het_request(&[6e-6, 11e-6], 1e-2);
        svc.serve(&r1).unwrap();
        svc.serve(&r2).unwrap(); // evicts r1
        let again = svc.serve(&r1).unwrap();
        assert_eq!(again.tier, ServedTier::Solver, "evicted ⇒ solved again");
        assert_eq!(svc.stats().lru_evictions, 2);
        assert_eq!(svc.stats().solver_solves, 3);
    }
}
