//! Layer probe for the `perfbench` benchmark (driven by `perfbench/run.py`).
//!
//! `setup WORKLOAD SEED MIN_REPS BUDGET_S` times the workload's set-up,
//! `Scenario::build_with`, at least `MIN_REPS` times and until `BUDGET_S`
//! seconds have passed, and prints the samples with the plan's case
//! descriptors, so the caller can check that this plan and the `ccq sweep`
//! argv describe the same cases.
//!
//! `trace WORKLOAD SEED OUT_DIR UNTRACED_WALL_S UNTRACED_REF_S` runs the
//! workload's `RunPlan` in process with every protocol wrapped in
//! [`Traced`], which times each `ProtocolSpec::execute` call (the engine
//! layer) and re-runs `ProtocolSpec::verify` and the QQC lateness on its
//! report as timed probes. It then times the set-up pieces, the shard
//! probe (a fixed one-shot plan, monolith and sharded) and the
//! transport/store/ring microbenches, writes a Chrome trace-event file and
//! the plan's `RunSet` JSON to `OUT_DIR`, and prints the per-layer metrics
//! and self-time table as one JSON line. The untraced sweep's wall time
//! and the reference kernel's time around it place the `cli` remainder.
//!
//! `calibrate REPS` times [`reference_kernel`] `REPS` times.

use ccq_core::plan::{RunCase, RunPlan};
use ccq_core::protocol::{find, registry, ProtocolKind, ProtocolSpec};
use ccq_core::scenario::{
    AdmissionSpec, ArrivalSpec, FaultSpec, PrioritySpec, RequestPattern, Scenario, ShardSpec,
    ShardStrategy, TopoSpec,
};
use ccq_graph::Tree;
use ccq_sim::ring::EventRing;
use ccq_sim::state::{Inbound, NodeStore};
use ccq_sim::transport::Transport;
use ccq_sim::{LinkDelay, PhaseTimings, SimConfig, SimError, SimReport};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn by_name(names: &[&str]) -> Vec<&'static dyn ProtocolSpec> {
    names.iter().map(|n| find(n).expect("registry protocol")).collect()
}

/// The workload's plan (protocols not yet added) and its protocols. Each
/// mirrors the `ccq sweep` argv of the same name in `run.py`; the caller
/// checks the two agree case by case on every run.
fn base_plan(workload: &str, seed: u64) -> Option<(RunPlan, Vec<&'static dyn ProtocolSpec>)> {
    let poisson = |rate: f64| ArrivalSpec::Poisson { rate, seed: 1 };
    let plan = RunPlan::new().seed(seed);
    Some(match workload {
        "sweep-torus64" => (
            plan.topologies([TopoSpec::Torus2D { side: 64 }]).arrivals([poisson(0.5)]),
            registry().to_vec(),
        ),
        "sparse-1m" => (
            plan.topologies([TopoSpec::Torus2D { side: 1000 }])
                .patterns([RequestPattern::TailCluster { count: 64 }])
                .arrivals([poisson(0.5)]),
            by_name(&["central-counter"]),
        ),
        "open-mixed" => (
            plan.topologies([TopoSpec::Torus2D { side: 32 }])
                .arrivals([poisson(0.6)])
                .delays([LinkDelay::Jitter { max: 4, seed: 1 }])
                .admissions([AdmissionSpec::DelayRetry { bound: 128, backoff: 4 }])
                .priorities([PrioritySpec::Split { frac: 0.25, seed: 11 }])
                .faults([FaultSpec::none().crash(7, 100, 300)]),
            registry().to_vec(),
        ),
        _ => return None,
    })
}

/// The shard layer's probe, run by every traced run: one-shot counting on a
/// 48x48 torus, monolith and `2:edgecut`. Run sharded, this plan spends
/// most of its time spawning threads and its wall time swung from 5.2 s to
/// 17.6 s with host load, so it is no end-to-end workload.
fn shard_probe_plan(shards: ShardSpec) -> RunPlan {
    RunPlan::new().topologies([SHARD_PROBE_TOPO]).shards([shards])
}

const SHARD_PROBE_TOPO: TopoSpec = TopoSpec::Torus2D { side: 48 };
const SHARD_PROBE_PROTOCOLS: [&str; 3] = ["counting-network", "periodic-network", "toggle-tree"];

fn with_protocols(mut plan: RunPlan, protocols: &[Box<dyn ProtocolSpec>]) -> RunPlan {
    for p in protocols {
        plan = plan.protocol(p.as_ref());
    }
    plan
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn thread_index() -> u64 {
    static THREADS: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
    let me = std::thread::current().id();
    let mut seen = THREADS.lock().expect("thread table lock");
    match seen.iter().position(|&t| t == me) {
        Some(i) => i as u64 + 1,
        None => {
            seen.push(me);
            seen.len() as u64
        }
    }
}

/// One `ProtocolSpec::execute` call as the wrapper saw it.
struct ExecRecord {
    proto: &'static str,
    tid: u64,
    start: Instant,
    end: Instant,
    /// The probe re-run of `ProtocolSpec::verify` on the report.
    verify: Option<(Instant, Instant)>,
    /// The probe run of the QQC lateness on the verified order.
    qqc: Option<(Instant, Instant)>,
    hops: u64,
    rounds: u64,
    cross: u64,
    delayed: u64,
    phases: PhaseTimings,
    hwm_mb_at_entry: f64,
}

type Records = Arc<Mutex<Vec<ExecRecord>>>;

/// A registry protocol with its engine call timed. Everything but
/// `execute` delegates, so the plan's output is unchanged; `verify` keeps
/// the trait's default, which every registry protocol uses.
struct Traced {
    inner: Box<dyn ProtocolSpec>,
    records: Records,
}

impl ProtocolSpec for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }
    fn effective_width(&self, n: usize) -> Option<usize> {
        self.inner.effective_width(n)
    }
    fn tree<'a>(&self, scenario: &'a Scenario) -> &'a Tree {
        self.inner.tree(scenario)
    }
    fn execute(&self, scenario: &Scenario, cfg: SimConfig) -> Result<SimReport, SimError> {
        let hwm_mb_at_entry = vm_hwm_mb();
        let start = Instant::now();
        let out = self.inner.execute(scenario, cfg);
        let end = Instant::now();
        let mut rec = ExecRecord {
            proto: self.inner.name(),
            tid: thread_index(),
            start,
            end,
            verify: None,
            qqc: None,
            hops: 0,
            rounds: 0,
            cross: 0,
            delayed: 0,
            phases: PhaseTimings::default(),
            hwm_mb_at_entry,
        };
        if let Ok(report) = &out {
            rec.hops = report.messages_sent;
            rec.rounds = report.rounds;
            rec.cross = report.cross_shard_messages;
            rec.delayed = report.delayed_admissions;
            rec.phases = report.phase_timing.unwrap_or_default();
            let v0 = Instant::now();
            let order = self.inner.verify(scenario, report);
            rec.verify = Some((v0, Instant::now()));
            if let Ok(order) = order {
                let q0 = Instant::now();
                black_box(report.qqc_lateness(&order));
                for class in report.classes() {
                    black_box(report.class_qqc_lateness(class, &order));
                }
                rec.qqc = Some((q0, Instant::now()));
            }
        }
        self.records.lock().expect("record lock").push(rec);
        out
    }
    fn clone_spec(&self) -> Box<dyn ProtocolSpec> {
        Box::new(Traced { inner: self.inner.clone_spec(), records: Arc::clone(&self.records) })
    }
}

fn traced(
    protocols: &[&'static dyn ProtocolSpec],
    records: &Records,
) -> Vec<Box<dyn ProtocolSpec>> {
    protocols
        .iter()
        .map(|p| {
            Box::new(Traced { inner: p.clone_spec(), records: Arc::clone(records) })
                as Box<dyn ProtocolSpec>
        })
        .collect()
}

/// Chrome trace-event spans, written as complete (`"ph": "X"`) events.
struct Trace {
    epoch: Instant,
    spans: Vec<String>,
    next_id: u64,
}

/// Id of the span that covers the whole traced run; every other span
/// descends from it.
const ROOT: u64 = 1;

impl Trace {
    fn new() -> Self {
        Trace { epoch: Instant::now(), spans: Vec::new(), next_id: ROOT }
    }

    fn span(
        &mut self,
        name: &str,
        cat: &str,
        parent: u64,
        tid: u64,
        a: Instant,
        b: Instant,
    ) -> u64 {
        self.next_id += 1;
        self.push(self.next_id, name, cat, parent, tid, a, b);
        self.next_id
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        id: u64,
        name: &str,
        cat: &str,
        parent: u64,
        tid: u64,
        a: Instant,
        b: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(format!(
            "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
            json_str(name),
            us(a),
            us(b) - us(a),
        ));
    }
}

/// A fixed computation that uses no repository code, on the data
/// structures the engine leans on: pointer chasing through a 4 MB
/// permutation, `HashMap`, `BTreeMap` and `VecDeque` traffic. Its time
/// follows the host's speed, not the program's. Seconds.
fn reference_kernel() -> f64 {
    const N: usize = 1 << 20;
    const KEYS: u64 = 1 << 15;
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Sattolo's shuffle: one cycle through all N slots.
    let mut next: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        next.swap(i, (rand() % i as u64) as usize);
    }
    let (mut p, mut acc) = (0usize, 0u64);
    for _ in 0..N {
        p = next[p] as usize;
        acc = acc.wrapping_mul(31).wrapping_add(p as u64);
    }
    let mut hash = std::collections::HashMap::new();
    let mut tree = BTreeMap::new();
    let mut deque = std::collections::VecDeque::new();
    for i in 0..KEYS {
        let k = rand() % KEYS;
        *hash.entry(k).or_insert(0u64) += i;
        tree.entry(k % 512).or_insert_with(Vec::new).push(i);
        deque.push_back(k);
        if deque.len() > 64 {
            acc = acc.wrapping_add(deque.pop_front().unwrap_or_default());
        }
    }
    while let Some((k, v)) = tree.pop_first() {
        acc = acc.wrapping_add(k + v.len() as u64 + hash.get(&k).copied().unwrap_or_default());
    }
    black_box(acc);
    secs(t0, Instant::now())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_map(m: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = m.iter().map(|(k, v)| format!("{}:{v:e}", json_str(k))).collect();
    format!("{{{}}}", body.join(","))
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Median of `f`'s own reported duration over at least three calls and
/// at least `min_total` seconds.
fn median_time(min_total: f64, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || secs(start, Instant::now()) < min_total {
        samples.push(f());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Most set-up samples one `setup` call takes, however short set-up is.
const MAX_SETUP_REPS: usize = 5000;

/// Scenario set-up as `RunPlan::execute` does it for a case's scenario
/// group.
fn build_scenario(case: &RunCase) -> Scenario {
    Scenario::build_with(case.topo.clone(), case.pattern.clone(), case.arrival.clone())
        .with_admission(case.admission)
        .with_priority(case.priority)
        .with_faults(case.faults.clone())
        .with_shards(case.shards)
}

fn cmd_setup(workload: &str, seed: u64, min_reps: usize, budget: f64) -> Result<(), String> {
    let (plan, protocols) =
        base_plan(workload, seed).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let plan = with_protocols(plan, &protocols.iter().map(|p| p.clone_spec()).collect::<Vec<_>>());
    let cases = plan.cases();
    let first = cases.first().ok_or("the workload plan has no cases")?;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps.max(1)
        || (secs(start, Instant::now()) < budget && samples.len() < MAX_SETUP_REPS)
    {
        let t0 = Instant::now();
        let scenario = build_scenario(first);
        samples.push(secs(t0, Instant::now()));
        drop(black_box(scenario));
    }
    let cases: Vec<String> = cases
        .iter()
        .map(|c| {
            let fields = [
                c.topo.name(),
                c.protocol.name().to_string(),
                format!("{:?}", c.mode),
                c.pattern.name(),
                c.arrival.name(),
                c.delay.name(),
                c.admission.name(),
                c.priority.name(),
                c.faults.name(),
                c.shards.name(),
            ];
            format!("[{}]", fields.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","))
        })
        .collect();
    let samples: Vec<String> = samples.iter().map(|s| format!("{s:e}")).collect();
    println!("{{\"setup_s\":[{}],\"cases\":[{}]}}", samples.join(","), cases.join(","));
    Ok(())
}

/// `Transport::transmit` + `drain_due`: every node of a 4096-ring sends
/// one wire to its successor per round for 64 rounds. ns per wire.
fn bench_transport(delay: LinkDelay) -> f64 {
    const N: usize = 4096;
    const ROUNDS: u64 = 64;
    let mut transport: Transport<u64> = Transport::new(delay);
    let mut seq = 0u64;
    let mut sum = 0u64;
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        for v in 0..N {
            seq += 1;
            transport.transmit(v, (v + 1) % N, seq, round, seq);
        }
        transport.drain_due(round, |w| sum = sum.wrapping_add(w.msg));
    }
    transport.drain_due(u64::MAX, |w| sum = sum.wrapping_add(w.msg));
    black_box(sum);
    secs(t0, Instant::now()) * 1e9 / (N as f64 * ROUNDS as f64)
}

/// One `NodeStore` message cycle — stage, pop from the outbox frontier,
/// enqueue, pop from the in-port frontier — for a 4096-ring over 64
/// rounds. ns per message.
fn bench_store() -> f64 {
    const N: usize = 4096;
    const ROUNDS: u64 = 64;
    let mut store: NodeStore<u64> = NodeStore::new(N);
    let mut frontier = Vec::with_capacity(N);
    let mut sum = 0u64;
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        for v in 0..N {
            store.stage(v, (v + 1) % N, round);
        }
        store.take_outbox_frontier(&mut frontier);
        for &v in &frontier {
            while let Some((to, msg)) = store.pop_outbox(v) {
                store.enqueue(to, Inbound { src: v, arrival: round + 1, msg });
            }
        }
        frontier.clear();
        store.take_inport_frontier(&mut frontier);
        for &v in &frontier {
            while let Some(inbound) = store.pop_inport(v) {
                sum = sum.wrapping_add(inbound.msg);
            }
        }
        frontier.clear();
    }
    black_box(sum);
    secs(t0, Instant::now()) * 1e9 / (N as f64 * ROUNDS as f64)
}

/// `EventRing::push` + `drain` in batches of 64. ns per event.
fn bench_ring() -> f64 {
    const BATCH: u64 = 64;
    const BATCHES: u64 = 4096;
    let mut ring: EventRing<u64> = EventRing::with_capacity(BATCH as usize);
    let mut sum = 0u64;
    let t0 = Instant::now();
    for b in 0..BATCHES {
        for i in 0..BATCH {
            ring.push(black_box(b ^ i));
        }
        for x in ring.drain() {
            sum = sum.wrapping_add(x);
        }
    }
    black_box(sum);
    secs(t0, Instant::now()) * 1e9 / (BATCH * BATCHES) as f64
}

/// Median of three [`reference_kernel`] runs.
fn reference_now() -> f64 {
    let mut t = [reference_kernel(), reference_kernel(), reference_kernel()];
    t.sort_by(f64::total_cmp);
    t[1]
}

fn cmd_trace(
    workload: &str,
    seed: u64,
    out_dir: &str,
    untraced_wall: f64,
    untraced_ref: f64,
) -> Result<(), String> {
    let (_, protocols) =
        base_plan(workload, seed).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    // `RunPlan` is not `Clone`; each pass builds its plan afresh.
    let base = || base_plan(workload, seed).expect("known workload").0;
    let mut trace = Trace::new();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    // The host's speed drifts, so the untraced sweep's wall time is brought
    // to this pass's speed by the reference kernel's time around each.
    let ref_before = reference_now();

    // The pipeline: the plan exactly as `ccq sweep` runs it, then its JSON.
    let records: Records = Arc::default();
    let plan = with_protocols(base(), &traced(&protocols, &records)).timing(true);
    let plan_start = Instant::now();
    let set = plan.execute();
    let plan_end = Instant::now();
    m.insert("mem.engine_mb".into(), vm_hwm_mb());
    let json = set.to_json();
    let json_end = Instant::now();
    let untraced_wall = untraced_wall * (ref_before + reference_now()) / 2.0 / untraced_ref;
    std::fs::write(format!("{out_dir}/runset-{workload}-{seed}.json"), format!("{json}\n"))
        .map_err(|e| format!("cannot write the RunSet JSON: {e}"))?;
    let records = std::mem::take(&mut *records.lock().expect("record lock"));
    if records.is_empty() {
        return Err("the plan executed no protocol".into());
    }

    let plan_id = trace.span("RunPlan::execute", "plan", ROOT, 1, plan_start, plan_end);
    let first = records.iter().map(|r| r.start).min().expect("non-empty");
    trace.span(
        "Scenario::build_with (inferred: plan start to first execute)",
        "scenario",
        plan_id,
        records[0].tid,
        plan_start,
        first,
    );
    let (mut execute_s, mut verify_s, mut qqc_s, mut post_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut hops, mut rounds, mut delayed) = (0u64, 0u64, 0u64);
    let mut phases = PhaseTimings::default();
    let mut per_proto: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        trace.span(
            &format!("{}: ProtocolSpec::execute", r.proto),
            "engine",
            plan_id,
            r.tid,
            r.start,
            r.end,
        );
        let mut tail = r.end;
        if let Some((a, b)) = r.verify {
            trace.span(
                &format!("{}: ProtocolSpec::verify (probe)", r.proto),
                "verify",
                plan_id,
                r.tid,
                a,
                b,
            );
            verify_s += secs(a, b);
            tail = b;
        }
        if let Some((a, b)) = r.qqc {
            trace.span(
                &format!("{}: QQC lateness (probe)", r.proto),
                "report",
                plan_id,
                r.tid,
                a,
                b,
            );
            qqc_s += secs(a, b);
            tail = b;
        }
        let next = records.get(i + 1).map_or(plan_end, |n| n.start);
        trace.span(
            &format!("{}: verify + report + CaseResult (inferred)", r.proto),
            "report",
            plan_id,
            r.tid,
            tail,
            next,
        );
        post_s += secs(tail, next);
        let e = secs(r.start, r.end);
        execute_s += e;
        hops += r.hops;
        rounds += r.rounds;
        delayed += r.delayed;
        phases.arrivals_micros += r.phases.arrivals_micros;
        phases.mature_micros += r.phases.mature_micros;
        phases.deliver_micros += r.phases.deliver_micros;
        phases.apply_micros += r.phases.apply_micros;
        phases.transmit_micros += r.phases.transmit_micros;
        phases.max_round_micros = phases.max_round_micros.max(r.phases.max_round_micros);
        let slot = per_proto.entry(r.proto).or_default();
        slot.0 += e;
        slot.1 += r.hops;
    }
    trace.span("RunSet::to_json", "plan", ROOT, 1, plan_end, json_end);
    let scenario_gap = secs(plan_start, first);
    m.insert("mem.setup_mb".into(), records[0].hwm_mb_at_entry);

    // Set-up pieces, each called on its own: the split of the inferred
    // scenario span above.
    let probe = |trace: &mut Trace, name: &str, a: Instant| {
        trace.span(name, "probe", ROOT, 1, a, Instant::now())
    };
    let case = base().cases().into_iter().next().expect("workload plans have cases");
    let t = Instant::now();
    let graph = case.topo.graph();
    let g_end = Instant::now();
    let qtree = case.topo.preferred_tree(&graph);
    let q_end = Instant::now();
    let ctree = case.topo.counting_tree(&graph);
    let c_end = Instant::now();
    let requests = case.pattern.materialize(graph.n());
    let schedule = case.arrival.materialize(&requests);
    let s_end = Instant::now();
    black_box((&qtree, &ctree, &schedule));
    drop((graph, qtree, ctree, requests, schedule));
    let setup_id = trace.span("set-up pieces (probe)", "probe", ROOT, 1, t, s_end);
    trace.span("TopoSpec::graph", "graph", setup_id, 1, t, g_end);
    trace.span("TopoSpec::preferred_tree", "graph", setup_id, 1, g_end, q_end);
    trace.span("TopoSpec::counting_tree", "graph", setup_id, 1, q_end, c_end);
    trace.span("RequestPattern + ArrivalSpec::materialize", "scenario", setup_id, 1, c_end, s_end);
    let topology_s = secs(t, g_end);
    let trees_s = secs(g_end, c_end);
    m.insert("graph.topology_s".into(), topology_s);
    m.insert("graph.queuing_tree_s".into(), secs(g_end, q_end));
    m.insert("graph.counting_tree_s".into(), secs(q_end, c_end));
    m.insert("scenario.schedule_s".into(), secs(c_end, s_end));

    // The shard probe: its partition, then its plan on one fabric and on
    // two.
    let sharded = ShardSpec::new(2, ShardStrategy::EdgeCut);
    let probe_start = Instant::now();
    let probe_graph = SHARD_PROBE_TOPO.graph();
    let part_start = Instant::now();
    black_box(sharded.partition(&probe_graph));
    let part_end = Instant::now();
    drop(probe_graph);
    let mut runs = Vec::new();
    for spec in [ShardSpec::single(), sharded] {
        let records: Records = Arc::default();
        let probe_protocols = traced(&by_name(&SHARD_PROBE_PROTOCOLS), &records);
        let plan = with_protocols(shard_probe_plan(spec), &probe_protocols);
        let a = Instant::now();
        black_box(plan.execute());
        let b = Instant::now();
        runs.push((spec, a, b, std::mem::take(&mut *records.lock().expect("record lock"))));
    }
    let name = format!(
        "shard probe: {} counting, shards 1 and {} (probe)",
        SHARD_PROBE_TOPO.name(),
        sharded.name()
    );
    let probe_id = probe(&mut trace, &name, probe_start);
    trace.span("ShardSpec::partition", "graph", probe_id, 1, part_start, part_end);
    let (mut shard_exec, mut cross) = ([0.0; 2], 0u64);
    for (i, (spec, a, b, records)) in runs.iter().enumerate() {
        let name = format!("RunPlan::execute, shards {}", spec.name());
        let plan_id = trace.span(&name, "plan", probe_id, 1, *a, *b);
        let cat = if spec.is_sharded() { "shard" } else { "engine" };
        for r in records {
            let name = format!("{}: ProtocolSpec::execute", r.proto);
            trace.span(&name, cat, plan_id, r.tid, r.start, r.end);
            shard_exec[i] += secs(r.start, r.end);
            cross += r.cross;
        }
    }
    m.insert("graph.partition_s".into(), secs(part_start, part_end));
    m.insert("shard.monolith_execute_s".into(), shard_exec[0]);
    m.insert("shard.execute_s".into(), shard_exec[1]);
    m.insert("shard.vs_monolith".into(), shard_exec[0] / shard_exec[1]);
    m.insert("shard.cross_msgs".into(), cross as f64);

    // Layer microbenches.
    let micro = [
        ("transport.wire_ns.unit", "Transport::transmit + drain_due, unit delay (probe)"),
        ("transport.wire_ns.jitter", "Transport::transmit + drain_due, jitter delay (probe)"),
        ("state.msg_ns", "NodeStore stage/pop/enqueue/pop (probe)"),
        ("ring.event_ns", "EventRing::push + drain (probe)"),
    ];
    for (metric, name) in micro {
        let a = Instant::now();
        let ns = median_time(0.05, || match metric {
            "transport.wire_ns.unit" => bench_transport(LinkDelay::Unit),
            "transport.wire_ns.jitter" => bench_transport(LinkDelay::Jitter { max: 4, seed: 1 }),
            "state.msg_ns" => bench_store(),
            _ => bench_ring(),
        });
        probe(&mut trace, name, a);
        m.insert(metric.into(), ns);
    }

    // Engine and per-protocol metrics.
    let micros = |us: u64| us as f64 * 1e-6;
    let phase_sum = micros(phases.arrivals_micros)
        + micros(phases.mature_micros)
        + micros(phases.deliver_micros)
        + micros(phases.apply_micros)
        + micros(phases.transmit_micros);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    m.insert("engine.execute_s".into(), execute_s);
    m.insert("engine.hops".into(), hops as f64);
    m.insert("engine.rounds".into(), rounds as f64);
    m.insert("engine.ns_per_hop".into(), per(execute_s * 1e9, hops));
    m.insert("engine.us_per_round".into(), per(execute_s * 1e6, rounds));
    m.insert("engine.mature_s".into(), micros(phases.mature_micros));
    m.insert("engine.deliver_s".into(), micros(phases.deliver_micros));
    m.insert("engine.transmit_s".into(), micros(phases.transmit_micros));
    m.insert("engine.max_round_us".into(), phases.max_round_micros as f64);
    m.insert("engine.init_s".into(), execute_s - phase_sum);
    m.insert("admission.delayed".into(), delayed as f64);
    // Not metrics: a workload runs only some protocols.
    let per_protocol: Vec<String> = per_proto
        .iter()
        .map(|(name, &(e, h))| {
            format!(
                "{}:{{\"execute_s\":{e:e},\"hops\":{h},\"ns_per_hop\":{:e}}}",
                json_str(name),
                per(e * 1e9, h)
            )
        })
        .collect();
    let per_protocol = format!("{{{}}}", per_protocol.join(","));
    // Not metrics either: the engine times phases in whole microseconds per
    // round, so a phase shorter than that (arrivals on sparse-1m) reads 0.
    let phases_s = json_map(
        &[
            ("arrivals", phases.arrivals_micros),
            ("mature", phases.mature_micros),
            ("deliver", phases.deliver_micros),
            ("apply", phases.apply_micros),
            ("transmit", phases.transmit_micros),
        ]
        .into_iter()
        .map(|(k, us)| (k.to_string(), micros(us)))
        .collect(),
    );
    m.insert("verify.s".into(), verify_s);
    m.insert("report.metrics_s".into(), post_s - verify_s);
    m.insert("report.qqc_s".into(), qqc_s);
    m.insert("plan.json_s".into(), secs(plan_end, json_end));
    m.insert("plan.json_bytes".into(), json.len() as f64);

    // Self time per layer of the pipeline. The scenario span is inferred
    // and split by the set-up pieces; the probe re-run of verify stands in
    // for the plan's own verify, which sits inside the inferred
    // post-execute gap. These splits subtract separately timed calls, so
    // host noise can make a small share read below 0; they are left as
    // measured.
    let graph_self = topology_s + trees_s;
    let table = [
        ("graph", graph_self),
        ("scenario", scenario_gap - graph_self),
        ("engine", execute_s),
        ("verify", verify_s),
        ("report", post_s - verify_s),
        ("plan", secs(plan_end, json_end)),
    ];
    let layers: f64 = table.iter().map(|&(_, s)| s).sum();
    let mut self_time: BTreeMap<String, f64> =
        table.iter().map(|&(k, s)| (k.to_string(), s)).collect();
    self_time.insert("cli".into(), untraced_wall - layers);
    for (k, s) in &self_time {
        m.insert(format!("self.{k}_s"), *s);
    }
    m.insert("cli.other_s".into(), untraced_wall - layers);
    // The traced plan and JSON, probe re-runs of verify and QQC included,
    // against the untraced `ccq sweep` process.
    m.insert("trace.overhead_s".into(), secs(plan_start, json_end) - untraced_wall);

    let (epoch, end) = (trace.epoch, Instant::now());
    trace.push(ROOT, &format!("perfbench {workload} seed={seed}"), "bench", 0, 1, epoch, end);
    let doc = format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":{},\"seed\":{seed},\
         \"self_time_s\":{},\"per_protocol\":{per_protocol},\"phases_s\":{phases_s},\"metrics\":{}}}}}\n",
        trace.spans.join(",\n"),
        json_str(workload),
        json_map(&self_time),
        json_map(&m)
    );
    let path = format!("{out_dir}/trace-{workload}-{seed}.json");
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "{{\"metrics\":{},\"self_time_s\":{},\"per_protocol\":{per_protocol},\"phases_s\":{phases_s},\
         \"trace\":{}}}",
        json_map(&m),
        json_map(&self_time),
        json_str(&path)
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str).unwrap_or_default();
    let num =
        |i: usize| arg(i).parse::<f64>().map_err(|_| format!("argument {i} must be a number"));
    let seed = || arg(2).parse::<u64>().map_err(|_| "SEED must be a whole number".to_string());
    let result = match arg(0) {
        "setup" => seed().and_then(|s| cmd_setup(arg(1), s, num(3)? as usize, num(4)?)),
        "trace" => seed().and_then(|s| cmd_trace(arg(1), s, arg(3), num(4)?, num(5)?)),
        "calibrate" => num(1).map(|reps| {
            let samples: Vec<String> =
                (0..(reps as usize).max(1)).map(|_| format!("{:e}", reference_kernel())).collect();
            println!("{{\"ref_s\":[{}]}}", samples.join(","));
        }),
        _ => Err("usage: ccq-perfbench setup WORKLOAD SEED MIN_REPS BUDGET_S | \
                  trace WORKLOAD SEED OUT_DIR UNTRACED_WALL_S UNTRACED_REF_S | calibrate REPS"
            .into()),
    };
    if let Err(e) = result {
        eprintln!("ccq-perfbench: {e}");
        std::process::exit(2);
    }
}
