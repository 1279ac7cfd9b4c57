//! The load generators: closed-loop serving clients and the optimizer
//! with a drain toggler, plus the per-reply recorder both share.

use crate::calib;
use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use crate::workload::{bitwise_eq, RequestPool};
use rt_core::RtError;
use rt_engine::{Engine, EngineClient, EngineReport, EngineResponse, RequestKind, Ticket};
use rt_optim::{optimize, DoseEngine, Objective, OptimizerConfig};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one or more clients saw. Every reply that arrives and matches its
/// golden is recorded; everything else counts as failed.
pub struct Rec<'t> {
    tracer: Option<&'t Tracer>,
    pub spans: Vec<Span>,
    /// Submit to the return of `Ticket::wait`, per correct reply.
    pub latency_ms: Vec<f64>,
    /// `EngineResponse::queue_ms`, per correct reply.
    pub queue_ms: Vec<f64>,
    /// Time inside `EngineClient::submit`, per correct reply.
    pub submit_us: Vec<f64>,
    /// Latency minus queue wait, per correct reply.
    pub service_ms: Vec<f64>,
    /// Sums over correct replies of the reply's modeled seconds, DRAM
    /// bytes (each divided by its batch size), L2 hit rate and share of
    /// peak bandwidth.
    pub modeled_s: f64,
    pub dram_bytes: f64,
    pub l2_hit_rate: f64,
    pub frac_peak_bw: f64,
    pub attempted: u64,
    pub failed: u64,
    pub last_reply: Option<Instant>,
}

/// A submitted request awaiting its reply.
pub struct InFlight {
    ticket: Ticket,
    t0: Instant,
    t1: Instant,
}

impl<'t> Rec<'t> {
    pub fn new(tracer: Option<&'t Tracer>) -> Rec<'t> {
        Rec {
            tracer,
            spans: Vec::new(),
            latency_ms: Vec::new(),
            queue_ms: Vec::new(),
            submit_us: Vec::new(),
            service_ms: Vec::new(),
            modeled_s: 0.0,
            dram_bytes: 0.0,
            l2_hit_rate: 0.0,
            frac_peak_bw: 0.0,
            attempted: 0,
            failed: 0,
            last_reply: None,
        }
    }

    /// Correct replies recorded.
    pub fn ok(&self) -> usize {
        self.latency_ms.len()
    }

    pub fn submit(
        &mut self,
        client: &EngineClient<'_>,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
    ) -> Option<InFlight> {
        self.attempted += 1;
        let t0 = Instant::now();
        let submitted = client.submit(plan, kind, payload);
        let t1 = Instant::now();
        match submitted {
            Ok(ticket) => Some(InFlight { ticket, t0, t1 }),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Waits for the reply and records it. Returns the output when the
    /// reply is `Ok` and, if a golden is given, equal to it bit for bit.
    pub fn finish(&mut self, f: InFlight, golden: Option<&[f64]>, parent: u64) -> Option<Vec<f64>> {
        let reply = f.ticket.wait();
        let t2 = Instant::now();
        self.record(f.t0, f.t1, t2, reply, golden, parent)
    }

    fn record(
        &mut self,
        t0: Instant,
        t1: Instant,
        t2: Instant,
        reply: Result<EngineResponse, RtError>,
        golden: Option<&[f64]>,
        parent: u64,
    ) -> Option<Vec<f64>> {
        let r = match reply {
            Ok(r) if golden.is_none_or(|g| bitwise_eq(&r.output, g)) => r,
            _ => {
                self.failed += 1;
                return None;
            }
        };
        let latency = ms(t2 - t0);
        self.latency_ms.push(latency);
        self.queue_ms.push(r.queue_ms);
        self.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        self.service_ms.push(latency - r.queue_ms);
        self.modeled_s += modeled_per_request(&r);
        self.dram_bytes += r.report.stats.dram_total_bytes() as f64 / r.batch_size.max(1) as f64;
        self.l2_hit_rate += r.report.stats.l2_hit_rate();
        self.frac_peak_bw += r.report.estimate.frac_peak_bw;
        self.last_reply = Some(t2);
        if let Some(t) = self.tracer {
            let id = t.id();
            self.spans
                .push(t.span_with_id(id, "request", parent, id, t0, t2));
            t.push(&mut self.spans, "engine.submit", id, id, t0, t1);
            t.push(&mut self.spans, "engine.wait", id, id, t1, t2);
        }
        Some(r.output)
    }

    pub fn merge(&mut self, other: Rec<'_>) {
        self.spans.extend(other.spans);
        self.latency_ms.extend(other.latency_ms);
        self.queue_ms.extend(other.queue_ms);
        self.submit_us.extend(other.submit_us);
        self.service_ms.extend(other.service_ms);
        self.modeled_s += other.modeled_s;
        self.dram_bytes += other.dram_bytes;
        self.l2_hit_rate += other.l2_hit_rate;
        self.frac_peak_bw += other.frac_peak_bw;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.last_reply = self.last_reply.max(other.last_reply);
    }

    /// Hands the recorded spans to the tracer.
    pub fn keep_spans(&mut self) {
        if let Some(t) = self.tracer {
            t.keep(std::mem::take(&mut self.spans));
        }
    }
}

/// Modeled device seconds one reply accounts for: the fan-out's critical
/// path when the plan ran sharded, else the batch launch's estimate,
/// shared evenly by the requests of the batch.
pub fn modeled_per_request(r: &EngineResponse) -> f64 {
    let batch = r
        .shards
        .as_ref()
        .map_or(r.report.estimate.seconds, |s| s.modeled_seconds);
    batch / r.batch_size.max(1) as f64
}

/// A stretch of measured load between two host-speed probes.
pub struct Slice<'t> {
    pub rec: Rec<'t>,
    /// When the slice's load started.
    pub start: Instant,
    /// Host-speed factor over the slice ([`calib::factor`] of the probes
    /// taken just before and just after it).
    pub host: f64,
}

impl Slice<'_> {
    /// Slice start to its last reply.
    pub fn elapsed_s(&self) -> f64 {
        self.rec
            .last_reply
            .map_or(0.0, |t| (t - self.start).as_secs_f64())
    }
}

/// One measured phase: its slices, the engine's session reports, and
/// what the optimize-drain load adds.
pub struct Phase<'t> {
    pub slices: Vec<Slice<'t>>,
    pub reports: Vec<EngineReport>,
    pub solves: Vec<Solve>,
    pub drain_ms: Vec<f64>,
}

/// Closed-loop serving for `dur` in `slices` serve sessions, with a
/// host-speed probe before, between and after them: each of `threads`
/// clients keeps `outstanding` requests in flight, drawing plan and
/// direction from shuffled blocks of the mix and payloads from the pool.
/// Requests sent before a slice's deadline are waited for and recorded.
#[allow(clippy::too_many_arguments)] // one load, its inputs and its knobs
pub fn serve<'t>(
    engine: &Engine,
    pool: &RequestPool,
    seed: u64,
    threads: usize,
    outstanding: usize,
    dur: Duration,
    slices: u32,
    tracer: Option<&'t Tracer>,
) -> Phase<'t> {
    let mut rngs: Vec<Rng> = (0..threads)
        .map(|t| Rng::new(seed, 100 + t as u64))
        .collect();
    let mut phase = Phase {
        slices: Vec::new(),
        reports: Vec::new(),
        solves: Vec::new(),
        drain_ms: Vec::new(),
    };
    let mut before = calib::probe();
    for _ in 0..slices {
        let ((rec, start), report) = engine.serve(|client| {
            let start = Instant::now();
            let end = start + dur / slices;
            let recs: Vec<Rec<'t>> = std::thread::scope(|s| {
                let handles: Vec<_> = rngs
                    .iter_mut()
                    .map(|rng| {
                        s.spawn(move || client_loop(client, pool, rng, outstanding, end, tracer))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let mut all = Rec::new(tracer);
            for r in recs {
                all.merge(r);
            }
            (all, start)
        });
        let after = calib::probe();
        phase.slices.push(Slice {
            rec,
            start,
            host: calib::factor(&before, &after),
        });
        phase.reports.push(report);
        before = after;
    }
    phase
}

fn client_loop<'t>(
    client: &EngineClient<'_>,
    pool: &RequestPool,
    rng: &mut Rng,
    outstanding: usize,
    end: Instant,
    tracer: Option<&'t Tracer>,
) -> Rec<'t> {
    let mut rec = Rec::new(tracer);
    let mut block: Vec<(usize, RequestKind)> = Vec::new();
    let mut pending = VecDeque::new();
    loop {
        while pending.len() < outstanding && Instant::now() < end {
            if block.is_empty() {
                block = pool.mix.clone();
                rng.shuffle(&mut block);
            }
            let (plan, kind) = block.pop().expect("refilled above");
            let idx = rng.below(crate::workload::PAYLOADS);
            let input = pool.entry(plan, kind, idx).0.clone();
            if let Some(f) = rec.submit(client, pool.plans[plan].name, kind, input) {
                pending.push_back((f, plan, kind, idx));
            }
        }
        let Some((f, plan, kind, idx)) = pending.pop_front() else {
            break;
        };
        rec.finish(f, Some(&pool.entry(plan, kind, idx).1), 0);
    }
    rec
}

/// One optimizer solve through the engine.
pub struct Solve {
    /// Index of the starting weights used.
    pub start: usize,
    pub weights: Vec<f64>,
    pub iters: usize,
    pub dose_evals: usize,
    pub seconds: f64,
    /// Requests the solve sent.
    pub requests: u64,
    /// Requests that failed or came back wrong.
    pub failed: u64,
}

/// The optimizer's dose engine for served solves: each forward and
/// backward SpMV is one request on the engine client, submitted and
/// waited for exactly as `rt_engine::ServedDoseEngine` does, with every
/// reply recorded.
struct Served<'c, 'e, 't> {
    client: &'c EngineClient<'e>,
    plan: &'static str,
    dims: (usize, usize),
    rec: RefCell<Rec<'t>>,
    solve: u64,
}

impl Served<'_, '_, '_> {
    fn call(&self, kind: RequestKind, payload: &[f64]) -> Vec<f64> {
        let mut rec = self.rec.borrow_mut();
        let out = rec
            .submit(self.client, self.plan, kind, payload.to_vec())
            .and_then(|f| rec.finish(f, None, self.solve));
        // A failed request fails the solve: its weights can then no longer
        // match the golden solve.
        out.unwrap_or_else(|| {
            vec![
                0.0;
                match kind {
                    RequestKind::Dose => self.dims.0,
                    RequestKind::Gradient => self.dims.1,
                }
            ]
        })
    }
}

impl DoseEngine for Served<'_, '_, '_> {
    fn nvoxels(&self) -> usize {
        self.dims.0
    }

    fn nspots(&self) -> usize {
        self.dims.1
    }

    fn dose(&self, weights: &[f64]) -> Vec<f64> {
        self.call(RequestKind::Dose, weights)
    }

    fn backproject(&self, residual: &[f64]) -> Vec<f64> {
        self.call(RequestKind::Gradient, residual)
    }
}

/// The optimize-drain load for `dur`: solves under `cfg` run back to
/// back from the starting weights in turn (the solve in progress at the
/// deadline finishes, and solves continue until they have sent
/// `min_requests`), each a slice between two host-speed probes, while
/// a second thread drains and undrains `drain_device` every second,
/// starting `phase` into the run. The device is back in service when the
/// load ends.
#[allow(clippy::too_many_arguments)] // one load, its inputs and its knobs
pub fn optimize_drain<'t>(
    engine: &Engine,
    plan: &'static str,
    objective: &Objective,
    starts: &[Vec<f64>],
    cfg: &OptimizerConfig,
    drain_device: usize,
    phase: Duration,
    dur: Duration,
    min_requests: u64,
    tracer: Option<&'t Tracer>,
) -> Phase<'t> {
    let dims = engine.plan_dims(plan).expect("the plan is registered");
    let ((slices, solves, drain_ms), report) = engine.serve(|client| {
        let begin = Instant::now();
        let end = begin + dur;
        let (stop, stopped) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let toggler =
                s.spawn(move || toggle_drain(client, drain_device, begin + phase, stopped, tracer));
            let mut slices = Vec::new();
            let mut solves = Vec::new();
            let mut before = calib::probe();
            let mut sent = 0;
            while Instant::now() < end || sent < min_requests {
                let start_idx = solves.len() % starts.len();
                let solve_id = tracer.map_or(0, |t| t.id());
                let served = Served {
                    client,
                    plan,
                    dims,
                    rec: RefCell::new(Rec::new(tracer)),
                    solve: solve_id,
                };
                let t0 = Instant::now();
                let r = optimize(&served, objective, &starts[start_idx], cfg);
                let t1 = Instant::now();
                let mut rec = served.rec.into_inner();
                sent += rec.attempted;
                if let Some(t) = tracer {
                    rec.spans
                        .push(t.span_with_id(solve_id, "optim.solve", 0, 0, t0, t1));
                }
                solves.push(Solve {
                    start: start_idx,
                    weights: r.weights,
                    iters: r.history.len(),
                    dose_evals: r.dose_evals,
                    seconds: (t1 - t0).as_secs_f64(),
                    requests: rec.attempted,
                    failed: rec.failed,
                });
                let after = calib::probe();
                slices.push(Slice {
                    rec,
                    start: t0,
                    host: calib::factor(&before, &after),
                });
                before = after;
            }
            drop(stop);
            let drain_ms = toggler.join().expect("drain thread panicked");
            (slices, solves, drain_ms)
        })
    });
    Phase {
        slices,
        reports: vec![report],
        solves,
        drain_ms,
    }
}

/// Drains and undrains `device` every second from `first` until `stop`
/// disconnects, then returns the device to service. Returns the
/// milliseconds of every drain and undrain call.
fn toggle_drain(
    client: &EngineClient<'_>,
    device: usize,
    first: Instant,
    stop: mpsc::Receiver<()>,
    tracer: Option<&Tracer>,
) -> Vec<f64> {
    let mut drained = false;
    let mut next = first;
    let mut took = Vec::new();
    let mut spans = Vec::new();
    let mut toggle = |drain: bool| {
        let t0 = Instant::now();
        let done = if drain {
            client.drain_device(device)
        } else {
            client.undrain_device(device)
        };
        let t1 = Instant::now();
        done.expect("the drain target is a valid, non-last device");
        took.push(ms(t1 - t0));
        if let Some(t) = tracer {
            let name = if drain {
                "engine.drain"
            } else {
                "engine.undrain"
            };
            t.push(&mut spans, name, 0, 0, t0, t1);
        }
    };
    while let Err(mpsc::RecvTimeoutError::Timeout) =
        stop.recv_timeout(next.saturating_duration_since(Instant::now()))
    {
        drained = !drained;
        toggle(drained);
        next += Duration::from_secs(1);
    }
    if drained {
        toggle(false);
    }
    if let Some(t) = tracer {
        t.keep(spans);
    }
    took
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_engine::ShardedReport;
    use rt_gpusim::{timing, DeviceSpec, KernelStats, LaunchReport};

    fn response(output: Vec<f64>, seconds: f64, batch_size: usize) -> EngineResponse {
        let stats = KernelStats::default();
        let mut estimate =
            timing::estimate(&DeviceSpec::a100(), &rt_core::profile_half_double(), &stats);
        estimate.seconds = seconds;
        EngineResponse {
            output,
            report: LaunchReport::new("Half/double", "A100", stats, estimate),
            device: "A100".to_string(),
            batch_size,
            queue_ms: 0.25,
            shards: None,
        }
    }

    #[test]
    fn batched_and_fanned_out_replies_split_their_modeled_time() {
        // A batch of 4 shares one launch's estimate.
        assert_eq!(modeled_per_request(&response(vec![], 8e-6, 4)), 2e-6);
        // A fan-out of 2 requests shares the critical path, not the
        // launch estimate of whichever shard landed last.
        let mut fan = response(vec![], 1.0, 2);
        fan.shards = Some(ShardedReport {
            kernel: "Half/double".to_string(),
            devices: vec!["A100".to_string(), "V100".to_string()],
            stats: KernelStats::default(),
            modeled_seconds: 6e-6,
            gather_bytes: 0,
            shards: Vec::new(),
        });
        assert_eq!(modeled_per_request(&fan), 3e-6);
    }

    #[test]
    fn a_flipped_bit_is_recorded_as_a_failure() {
        let golden: Vec<f64> = vec![1.0, 2.0, 3.0];
        let mut flipped = golden.clone();
        flipped[2] = f64::from_bits(flipped[2].to_bits() ^ 1);
        let mut rec = Rec::new(None);
        let now = Instant::now();
        let ok = Ok(response(golden.clone(), 1e-6, 1));
        assert!(rec.record(now, now, now, ok, Some(&golden), 0).is_some());
        let bad = Ok(response(flipped, 1e-6, 1));
        assert!(rec.record(now, now, now, bad, Some(&golden), 0).is_none());
        assert_eq!((rec.ok(), rec.failed), (1, 1));
        // Equal as numbers, different as bits.
        assert!(!bitwise_eq(&[0.0], &[-0.0]));
    }
}
