//! Compute/simulate overlap: double-buffered trace channels per emulated
//! core, drained by dedicated simulation threads.
//!
//! This is the moral equivalent of Pin's buffered-trace mode, which the
//! paper's ZSim setup relies on (Section II-E): the workload thread runs
//! the instrumented kernel at near-native speed, recording micro-events
//! into a [`TraceBuf`]; when the buffer fills it is handed over a channel
//! to a simulation thread that owns the corresponding [`CoreModel`] and
//! replays the block with [`CoreModel::consume_batch`], while the
//! workload thread keeps recording into the next buffer.
//!
//! Backpressure is bounded by construction rather than by a bounded
//! channel: exactly [`SimPipelineConfig::buffers_per_core`] buffers
//! circulate per core between the workload side and its simulation
//! thread's free list, so a workload thread that runs too far ahead
//! blocks in `free_rx.recv()` until a buffer comes back — at which point
//! at most `buffers_per_core * buffer_events` events are in flight.
//!
//! Determinism: each core's buffers travel a single FIFO channel to the
//! one thread that owns that core's model, so events replay in exactly
//! the recorded per-core order and reports stay bit-identical to inline
//! charging (phase/dependent markers ride in the stream; see
//! [`crate::trace`]).

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::Instant;

use asa_obs::{Counter, Gauge, Hist, Obs};

use crate::config::{MachineConfig, SimPipelineConfig};
use crate::core::CoreModel;
use crate::events::{phase, EventSink, InstrClass};
use crate::machine::block_partition;
use crate::report::KernelReport;
use crate::trace::TraceBuf;

/// What a workload side sends to its simulation thread. The `usize` seat
/// index routes the command to the right core model when one thread
/// serves several cores.
enum Cmd {
    /// A filled trace buffer to replay (then recycle to the free list).
    Batch(TraceBuf),
    /// Sweep barrier: take the core's phase reports and send them back.
    Flush,
}

/// Workload-side telemetry for one [`CorePipe`]. The counters are shared
/// (striped-atomic) across all pipes of a pipeline, so totals aggregate
/// per pipeline while each increment stays on the recording thread.
#[derive(Debug, Clone)]
struct PipeObs {
    /// Batches shipped to the simulation side.
    batches: Counter,
    /// `send_batch` calls that had to block on the free list (the
    /// simulator fell behind — backpressure engaged).
    stalls: Counter,
    /// Events per shipped batch (buffer occupancy at handoff; partial
    /// batches come from sweep-barrier flushes).
    fill: Hist,
    /// The same occupancy as a level, so the continuous-telemetry
    /// collector can sample a live `pipeline.buf_fill` series (a
    /// sustained drop below capacity means barrier flushes dominate).
    fill_level: Gauge,
    /// Handle for `pipeline.ingest` spans and `pipeline.stall` trace
    /// instants when a flight recorder is attached.
    obs: Obs,
}

impl PipeObs {
    fn attach(obs: &Obs) -> Option<Self> {
        obs.enabled().then(|| PipeObs {
            batches: obs.counter("pipeline.batches"),
            stalls: obs.counter("pipeline.stalls"),
            fill: obs.hist("pipeline.batch_fill"),
            fill_level: obs.gauge("pipeline.buf_fill"),
            obs: obs.clone(),
        })
    }
}

/// Simulation-side telemetry for one [`Seat`].
#[derive(Debug, Clone)]
struct SeatObs {
    /// Events replayed by `consume_batch`.
    replay_events: Counter,
    /// Nanoseconds spent inside `consume_batch` (replay throughput =
    /// `replay_events / replay_nanos`).
    replay_nanos: Counter,
    /// Handle for `pipeline.replay` spans on the simulation thread's
    /// flight-recorder track.
    obs: Obs,
}

impl SeatObs {
    fn attach(obs: &Obs) -> Option<Self> {
        obs.enabled().then(|| SeatObs {
            replay_events: obs.counter("pipeline.replay_events"),
            replay_nanos: obs.counter("pipeline.replay_nanos"),
            obs: obs.clone(),
        })
    }
}

/// One simulated core owned by a simulation thread.
struct Seat {
    model: CoreModel,
    free_tx: Sender<TraceBuf>,
    report_tx: Sender<[KernelReport; phase::COUNT]>,
    obs: Option<SeatObs>,
}

fn worker_loop(rx: Receiver<(usize, Cmd)>, mut seats: Vec<Seat>) {
    while let Ok((seat, cmd)) = rx.recv() {
        let seat = &mut seats[seat];
        match cmd {
            Cmd::Batch(mut buf) => {
                if let Some(obs) = &seat.obs {
                    let _sp = obs.obs.span("pipeline.replay");
                    let t = Instant::now();
                    seat.model.consume_batch(&buf);
                    obs.replay_nanos.add(t.elapsed().as_nanos() as u64);
                    obs.replay_events.add(buf.len() as u64);
                } else {
                    seat.model.consume_batch(&buf);
                }
                buf.clear();
                // The pipe may already be gone during teardown.
                let _ = seat.free_tx.send(buf);
            }
            Cmd::Flush => {
                let _ = seat.report_tx.send(seat.model.take_phase_reports());
            }
        }
    }
}

/// The workload-side [`EventSink`] for one emulated core: records into
/// the current [`TraceBuf`] and ships full buffers to the owning
/// simulation thread, blocking on the bounded free list when the
/// simulator falls behind.
#[derive(Debug)]
pub struct CorePipe {
    seat: usize,
    buf: TraceBuf,
    capacity: usize,
    events: u64,
    data_tx: Sender<(usize, Cmd)>,
    free_rx: Receiver<TraceBuf>,
    report_rx: Receiver<[KernelReport; phase::COUNT]>,
    obs: Option<PipeObs>,
}

impl CorePipe {
    /// Total events recorded through this pipe.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Ships any partial buffer, then tells the simulation thread to
    /// close out the sweep; pair with [`SimPipeline::barrier_phase_reports`]
    /// (which calls this for every pipe) rather than calling directly.
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.send_batch();
        }
        self.data_tx
            .send((self.seat, Cmd::Flush))
            .expect("simulation thread alive");
    }

    fn recv_reports(&mut self) -> [KernelReport; phase::COUNT] {
        self.report_rx.recv().expect("simulation thread alive")
    }

    fn send_batch(&mut self) {
        // Bounded backpressure: wait for a recycled buffer before
        // shipping the full one. With telemetry attached, distinguish the
        // free-list fast path from an actual backpressure stall.
        let empty = if let Some(obs) = &self.obs {
            let _sp = obs.obs.span("pipeline.ingest");
            obs.batches.incr();
            obs.fill.record(self.buf.len() as u64);
            obs.fill_level.set(self.buf.len() as u64);
            match self.free_rx.try_recv() {
                Ok(buf) => buf,
                Err(TryRecvError::Empty) => {
                    obs.stalls.incr();
                    obs.obs.trace_instant("pipeline.stall", "sim");
                    self.free_rx.recv().expect("simulation thread alive")
                }
                Err(TryRecvError::Disconnected) => panic!("simulation thread alive"),
            }
        } else {
            self.free_rx.recv().expect("simulation thread alive")
        };
        let full = std::mem::replace(&mut self.buf, empty);
        self.events += full.len() as u64;
        self.data_tx
            .send((self.seat, Cmd::Batch(full)))
            .expect("simulation thread alive");
    }

    #[inline]
    fn maybe_send(&mut self) {
        if self.buf.len() >= self.capacity {
            self.send_batch();
        }
    }
}

impl EventSink for CorePipe {
    #[inline]
    fn instr(&mut self, class: InstrClass, count: u64) {
        self.buf.instr(class, count);
        self.maybe_send();
    }

    #[inline]
    fn branch(&mut self, site: u32, taken: bool) {
        self.buf.branch(site, taken);
        self.maybe_send();
    }

    #[inline]
    fn mem_read(&mut self, addr: u64) {
        self.buf.mem_read(addr);
        self.maybe_send();
    }

    #[inline]
    fn mem_write(&mut self, addr: u64) {
        self.buf.mem_write(addr);
        self.maybe_send();
    }

    #[inline]
    fn set_dependent(&mut self, dependent: bool) {
        self.buf.set_dependent(dependent);
        self.maybe_send();
    }

    #[inline]
    fn set_phase(&mut self, p: usize) {
        self.buf.set_phase(p);
        self.maybe_send();
    }
}

/// A full overlapped-simulation pipeline: one [`CorePipe`] per emulated
/// core on the workload side, [`SimPipelineConfig::sim_threads`]
/// simulation threads owning the [`CoreModel`]s on the other side.
///
/// Everything — cores, trace buffers, channels, threads — is allocated
/// once at construction and reused across sweeps; dropping the pipeline
/// closes the channels and joins the threads.
#[derive(Debug)]
pub struct SimPipeline {
    pipes: Vec<CorePipe>,
    workers: Vec<JoinHandle<()>>,
}

impl SimPipeline {
    /// Builds the pipeline for `mcfg.cores` emulated cores.
    pub fn new(mcfg: &MachineConfig, pcfg: &SimPipelineConfig) -> Self {
        Self::with_obs(mcfg, pcfg, &Obs::disabled())
    }

    /// [`SimPipeline::new`] plus telemetry: batch/stall/fill metrics on
    /// the workload side and replay-throughput counters on the simulation
    /// side. With `Obs::disabled()` this is exactly the plain pipeline.
    pub fn with_obs(mcfg: &MachineConfig, pcfg: &SimPipelineConfig, obs: &Obs) -> Self {
        let cores = mcfg.cores.max(1);
        let sim_threads = if pcfg.sim_threads == 0 {
            cores
        } else {
            pcfg.sim_threads.min(cores)
        };
        let buffers = pcfg.buffers_per_core.max(2);
        let capacity = pcfg.buffer_events.max(1);

        let mut pipes = Vec::with_capacity(cores);
        let mut workers = Vec::with_capacity(sim_threads);
        for cores_of_thread in block_partition(cores, sim_threads) {
            if cores_of_thread.is_empty() {
                continue;
            }
            let (data_tx, data_rx) = channel::<(usize, Cmd)>();
            let mut seats = Vec::with_capacity(cores_of_thread.len());
            for _ in cores_of_thread {
                let (free_tx, free_rx) = channel();
                let (report_tx, report_rx) = channel();
                for _ in 1..buffers {
                    free_tx
                        .send(TraceBuf::with_capacity(capacity))
                        .expect("fresh channel");
                }
                pipes.push(CorePipe {
                    seat: seats.len(),
                    buf: TraceBuf::with_capacity(capacity),
                    capacity,
                    events: 0,
                    data_tx: data_tx.clone(),
                    free_rx,
                    report_rx,
                    obs: PipeObs::attach(obs),
                });
                seats.push(Seat {
                    model: CoreModel::new(mcfg),
                    free_tx,
                    report_tx,
                    obs: SeatObs::attach(obs),
                });
            }
            workers.push(std::thread::spawn(move || worker_loop(data_rx, seats)));
        }
        Self { pipes, workers }
    }

    /// Number of emulated cores.
    pub fn num_cores(&self) -> usize {
        self.pipes.len()
    }

    /// The per-core workload-side sinks, for distribution to host worker
    /// threads (`pipes_mut().par_iter_mut()` with per-core vertex ranges).
    pub fn pipes_mut(&mut self) -> &mut [CorePipe] {
        &mut self.pipes
    }

    /// Total events recorded across all pipes.
    pub fn events(&self) -> u64 {
        self.pipes.iter().map(CorePipe::events).sum()
    }

    /// Sweep barrier: flushes every pipe, waits for all simulation
    /// threads to drain, and returns each core's per-phase reports
    /// (resetting them), in core order.
    ///
    /// All pipes are flushed *before* any report is awaited, so the
    /// simulation threads drain their tails concurrently.
    pub fn barrier_phase_reports(&mut self) -> Vec<[KernelReport; phase::COUNT]> {
        for pipe in &mut self.pipes {
            pipe.flush();
        }
        self.pipes.iter_mut().map(CorePipe::recv_reports).collect()
    }
}

impl Drop for SimPipeline {
    fn drop(&mut self) {
        // Dropping the pipes drops every data sender; the workers' recv
        // loops end and the threads exit.
        self.pipes.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &mut impl EventSink, n: u64) {
        sink.set_phase(phase::HASH);
        sink.set_dependent(true);
        let mut x = 0x9e37_79b9u64;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sink.instr(InstrClass::Alu, 1 + i % 3);
            sink.branch((x % 17) as u32, x & 2 == 0);
            sink.mem_read(x % (1 << 20));
            if x & 4 == 0 {
                sink.mem_write(x % (1 << 20));
            }
        }
        sink.set_dependent(false);
        sink.set_phase(phase::COMPUTE);
    }

    fn assert_bitwise(a: &KernelReport, b: &KernelReport) {
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.branches, b.branches);
        assert_eq!(a.mispredictions, b.mispredictions);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.stores, b.stores);
        assert_eq!(a.l1_misses, b.l1_misses);
        assert_eq!(a.l2_misses, b.l2_misses);
        assert_eq!(a.l3_misses, b.l3_misses);
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    }

    #[test]
    fn pipeline_matches_inline_core_across_sweeps() {
        let mcfg = MachineConfig::baseline(2);
        let pcfg = SimPipelineConfig {
            buffer_events: 64, // tiny buffers force many handoffs
            buffers_per_core: 2,
            sim_threads: 1, // one thread serving both cores
        };
        let mut pipeline = SimPipeline::new(&mcfg, &pcfg);
        let mut inline: Vec<CoreModel> = (0..2).map(|_| CoreModel::new(&mcfg)).collect();

        for sweep in 0..3u64 {
            for (i, pipe) in pipeline.pipes_mut().iter_mut().enumerate() {
                feed(pipe, 200 + 37 * sweep + i as u64);
            }
            let piped = pipeline.barrier_phase_reports();
            assert_eq!(piped.len(), 2);
            for (i, core) in inline.iter_mut().enumerate() {
                feed(core, 200 + 37 * sweep + i as u64);
                let direct = core.take_phase_reports();
                for (a, b) in piped[i].iter().zip(direct.iter()) {
                    assert_bitwise(a, b);
                }
            }
        }
        assert!(pipeline.events() > 0);
    }

    #[test]
    fn empty_sweep_barrier_is_clean() {
        let mcfg = MachineConfig::baseline(1);
        let mut pipeline = SimPipeline::new(&mcfg, &SimPipelineConfig::default());
        let reports = pipeline.barrier_phase_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0][phase::COMPUTE].instructions, 0);
    }
}
