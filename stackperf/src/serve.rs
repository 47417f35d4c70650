//! `serve_edit`: the daemon's edit-verify loop.
//!
//! An in-process `serve::Server` listens on loopback TCP with one worker
//! per CPU and is primed with the 28 corpus verifications. Closed-loop
//! clients, one connection each and at most `nproc` of them, replay a
//! seeded stream that interleaves reads (an unchanged corpus program:
//! every stage hits the cache) and edits (a single-function change never
//! sent before in the run: it misses for that function and its transitive
//! callers, and for the machine run). It is the one workload where
//! `vcache`, the incremental compile path, `MeasureCache`, the queue and
//! the wire matter, and reads and edits use the cache in opposite ways.

use crate::corpus::{self, Answer, Item, Known, Reference, TARGETS};
use crate::layers::{self, instrs, timed, Layers};
use crate::stats::{self, Rng};
use crate::{end_to_end, nproc, print_shape, Args, Outcome, Sample, SetUp, SETUPS};
use stackbound::serve::protocol::{escape, VerifyRequest};
use stackbound::serve::{spawn_tcp, ServeOptions, Server, ServerHandle, Session};
use stackbound::{clight, compiler, vcache, DEFAULT_FUEL};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stream blocks per second of `--seconds`. A block holds every edit
/// site once (136 edits) and every corpus program on both targets
/// [`READS_PER_BLOCK`] times (420 reads), in seeded order: about 0.33 s
/// with two clients.
const BLOCKS_PER_S: f64 = 2.3;

/// Reads of each (program, target) per block. The share of edits is an
/// assumption: no measured editor or CI traffic fixes it. It keeps about
/// the ratio of the repository's `serve_bench` load generator (180 warm
/// reads to 64 edit-storm requests, 2.8 to 1); here 420 reads to 136
/// edits, 3.1 to 1. That also puts the median verdict well inside the
/// reads, away from the edge between the two kinds. `verdicts_per_s`,
/// `verdict_p50_ms` and `verdict_tail_ms` follow the ratio directly, and
/// since every edit adds cache entries for the rest of the run, so does
/// `peak_rss_mb`; `read_p50_ms` and `edit_p50_ms` each time one kind.
const READS_PER_BLOCK: usize = 15;

/// Closed-loop clients (capped at `nproc`).
const CLIENTS: usize = 2;

/// The seeded stream, and the length of its blocks.
fn items(seed: u64, blocks: usize) -> (Vec<Item>, usize) {
    let programs = corpus::programs();
    let sites: Vec<(usize, usize, String)> = programs
        .iter()
        .enumerate()
        .flat_map(|(p, b)| {
            let program = clight::frontend(b.source, &[]).expect("corpus program parses");
            let funcs: Vec<String> = program.function_names().map(str::to_owned).collect();
            (0..TARGETS.len()).flat_map(move |t| funcs.clone().into_iter().map(move |f| (p, t, f)))
        })
        .collect();
    let mut rng = Rng::new(seed);
    let mut next_k = 1_000 + (seed % 1_000) as u32 * 1_000_000;
    let mut items = Vec::new();
    for _ in 0..blocks {
        let mut block = Vec::new();
        for _ in 0..READS_PER_BLOCK {
            for program in 0..programs.len() {
                for target in 0..TARGETS.len() {
                    block.push(Item {
                        program,
                        target,
                        edit: None,
                    });
                }
            }
        }
        for (program, target, func) in &sites {
            next_k += 1;
            block.push(Item {
                program: *program,
                target: *target,
                edit: Some((func.clone(), next_k)),
            });
        }
        rng.shuffle(&mut block);
        items.extend(block);
    }
    let block = items.len() / blocks;
    (items, block)
}

struct State {
    reference: Reference,
    items: Vec<Item>,
    block: usize,
    daemon: Option<Daemon>,
}

/// The server under test; dropping it shuts the server down and frees
/// its caches.
struct Daemon {
    server: Arc<Server>,
    handle: Option<ServerHandle>,
    /// `VCache` and `MeasureCache` counters once priming finished.
    primed: CacheCounts,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Err(e) = handle.shutdown() {
                eprintln!("stackperf: server shutdown: {e}");
            }
        }
    }
}

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("server is running").addr()
    }
}

fn request(id: usize, source: &str, target: usize) -> String {
    format!(
        "{{\"op\":\"verify\",\"id\":{id},\"source\":{},\"target\":\"{}\"}}\n",
        escape(source),
        TARGETS[target].name()
    )
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether a response carries `id` and the expected one-shot rendering.
fn response_ok(line: &str, id: usize, rendering: &str) -> bool {
    line.starts_with(&format!("{{\"id\":{id},\"ok\":true,"))
        && line.contains(&format!("\"report\":{},\"cache\"", escape(rendering)))
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

fn round_trip(conn: &mut (TcpStream, BufReader<TcpStream>), line: &str) -> Result<String, String> {
    conn.0
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    conn.1
        .read_line(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(response)
}

/// `(hits, misses)` of the four `VCache` stages and the `MeasureCache`.
type CacheCounts = [(u64, u64); 5];

fn cache_stats(session: &Session) -> CacheCounts {
    let vc = session.cache();
    [
        vc.stats(vcache::CacheStage::Analyze),
        vc.stats(vcache::CacheStage::Check),
        vc.stats(vcache::CacheStage::Compile),
        vc.stats(vcache::CacheStage::Bound),
        session.measures().stats(),
    ]
}

fn delta(after: CacheCounts, before: CacheCounts) -> CacheCounts {
    std::array::from_fn(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1))
}

fn setup(args: &Args) -> Result<State, String> {
    let known = Known::parse(corpus::KNOWN_ANSWERS)?;
    let blocks = ((args.seconds as f64 * BLOCKS_PER_S).round() as usize).max(1);
    let (items, block) = items(args.seed, blocks);
    let reference = Reference::derive(&known, &items)?;
    let server = Arc::new(Server::new(
        Session::new(),
        ServeOptions {
            workers: nproc(),
            ..ServeOptions::default()
        },
    ));
    let handle = spawn_tcp(server.clone()).map_err(|e| format!("serve: {e}"))?;
    let mut daemon = Daemon {
        server,
        handle: Some(handle),
        primed: [(0, 0); 5],
    };
    // Prime with every corpus program on both targets.
    let mut conn = connect(daemon.addr())?;
    for (p, b) in reference.programs.iter().enumerate() {
        for (t, target) in TARGETS.iter().enumerate() {
            let response = round_trip(&mut conn, &request(0, b.source, t))?;
            if !response_ok(&response, 0, &reference.reads[p][t].rendering) {
                return Err(format!("priming {} [{target}]: {response}", b.file));
            }
        }
    }
    daemon.primed = cache_stats(daemon.server.session());
    Ok(State {
        reference,
        items,
        block,
        daemon: Some(daemon),
    })
}

/// One served request as the client saw it.
struct Served {
    index: usize,
    /// Seconds from the start of its segment's replay to the reply.
    done_s: f64,
    sample: Sample,
    queue_ms: f64,
    work_ms: f64,
    ok: bool,
}

impl State {
    fn daemon(&self) -> &Daemon {
        self.daemon.as_ref().expect("server is running")
    }

    /// The untraced replay of the stream's `range` over TCP, with
    /// closed-loop clients claiming items from a shared cursor. Each
    /// client opens its own connection, so each segment starts its client
    /// and connection threads afresh: with more threads than CPUs, where
    /// the scheduler places them sets the pace for as long as they live.
    fn replay(&self, clients: usize, range: Range<usize>) -> Result<(Vec<Served>, f64), String> {
        let mut conns = (0..clients)
            .map(|_| connect(self.daemon().addr()))
            .collect::<Result<Vec<_>, _>>()?;
        let cursor = AtomicUsize::new(range.start);
        let start = Instant::now();
        let per_client: Vec<Result<Vec<Served>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= range.end {
                                return Ok(out);
                            }
                            let item = &self.items[i];
                            let line = request(i, &self.reference.source(item)?, item.target);
                            let t0 = Instant::now();
                            let response = round_trip(conn, &line)?;
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            let done_s = start.elapsed().as_secs_f64();
                            let us = |k| field_u64(&response, k).unwrap_or(0) as f64 / 1e3;
                            out.push(Served {
                                index: i,
                                sample: Sample {
                                    ms,
                                    edit: item.edit.is_some(),
                                },
                                done_s,
                                queue_ms: us("\"queue_us\":"),
                                work_ms: us("\"work_us\":"),
                                ok: response_ok(
                                    &response,
                                    i,
                                    &self.reference.expected(item).rendering,
                                ),
                            });
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut served = Vec::new();
        for c in per_client {
            served.extend(c?);
        }
        served.sort_by_key(|s| s.index);
        Ok((served, wall))
    }

    /// The daemon's own `failed` and `timed_out` counters.
    fn daemon_counters(&self) -> Result<(u64, u64), String> {
        let mut conn = connect(self.daemon().addr())?;
        let line = round_trip(&mut conn, "{\"op\":\"metrics\",\"id\":0}\n")?;
        let v = obs::json::parse(&line).map_err(|e| format!("metrics: {e:?}"))?;
        let count = |k| {
            v.get("requests")
                .and_then(|r| r.get(k))
                .and_then(|n| n.as_f64())
                .map(|n| n as u64)
                .ok_or(format!("metrics response without `{k}`: {line}"))
        };
        Ok((count("failed")?, count("timed_out")?))
    }

    /// The traced replay: the cached variant of each layer call, in the
    /// order `Verifier::verify` makes them, against a fresh session primed
    /// like the server, by as many threads as the untraced replay had
    /// clients.
    fn replay_traced(&self, clients: usize) -> Result<(Layers, usize, CacheCounts, f64), String> {
        let session = Session::new();
        for b in &self.reference.programs {
            for target in TARGETS {
                session
                    .verify(&VerifyRequest {
                        id: 0,
                        source: b.source.to_owned(),
                        target,
                        params: Vec::new(),
                        measure: true,
                        timeout_ms: None,
                    })
                    .map_err(|e| format!("priming {}: {e}", b.file))?;
            }
        }
        let primed = cache_stats(&session);
        let cursor = AtomicUsize::new(0);
        let start = Instant::now();
        let per_thread: Vec<Result<(Layers, usize), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let (cursor, session) = (&cursor, &session);
                    scope.spawn(move || {
                        let mut l = Layers::default();
                        let mut failed = 0;
                        while let Some(item) =
                            self.items.get(cursor.fetch_add(1, Ordering::Relaxed))
                        {
                            let src = self.reference.source(item)?;
                            let t0 = Instant::now();
                            let got = traced_cached(&src, item, session, &mut l);
                            l.verdicts += t0.elapsed();
                            failed += usize::from(
                                !got.is_ok_and(|a| a == self.reference.expected(item).answer),
                            );
                        }
                        Ok((l, failed))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("trace thread panicked".into()))
                })
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut layers = Layers::default();
        let mut failed = 0;
        for t in per_thread {
            let (l, f) = t?;
            layers.merge(l);
            failed += f;
        }
        Ok((layers, failed, delta(cache_stats(&session), primed), wall))
    }
}

fn traced_cached(
    src: &str,
    item: &Item,
    session: &Session,
    l: &mut Layers,
) -> Result<Answer, String> {
    let cache = session.cache();
    let config =
        compiler::PipelineConfig::with_options(compiler::Options::for_target(TARGETS[item.target]));
    l.source_bytes += src.len() as u64;
    let program = timed(&mut l.frontend, || clight::frontend(src, &[]))?;
    let keys = timed(&mut l.keys, || vcache::keys(&program, &config.options));
    let analysis = timed(&mut l.analyze, || vcache::analyze(cache, &program, &keys))
        .map_err(|e| e.to_string())?;
    timed(&mut l.auto_check, || {
        vcache::check(cache, &program, &analysis, &keys)
    })
    .map_err(|e| e.to_string())?;
    let compiled = timed(&mut l.compile, || {
        vcache::compile(cache, &program, &config, &keys)
    })
    .map_err(|e| e.to_string())?;
    l.asm_instrs += instrs(&compiled.asm);
    let bounds: BTreeMap<String, u32> = timed(&mut l.bound, || {
        program
            .function_names()
            .filter_map(|f| {
                let b = vcache::concrete_bound(cache, &analysis, &compiled.metric, f, &keys)?;
                Some((f.to_owned(), b as u32))
            })
            .collect()
    });
    let main_bound = *bounds.get("main").ok_or("main has no bound")?;
    let m = timed(&mut l.measure, || {
        session
            .measures()
            .measure_function(&compiled.asm, "main", &[], main_bound, DEFAULT_FUEL)
    })
    .map_err(|e| e.to_string())?;
    // Reads hit the measurement cache and edits miss it (the replay
    // asserts this), so only edits executed their steps.
    if item.edit.is_some() {
        l.steps += m.steps;
    }
    if m.error.is_some() || !m.behavior.converges() {
        return Err(format!("main did not converge: {:?}", m.error));
    }
    let answer = Answer {
        bounds,
        peak: m.stack_usage,
    };
    answer.check_peak()?;
    Ok(answer)
}

/// Per block of one segment, its requests over the time from the
/// previous block's last reply (or the segment's start) to its own. The
/// run reports the median over all blocks: a run on a shared machine is
/// slowed now and then for a few seconds, and the median keeps such a
/// spell in a minority of blocks from moving the figure. `served` is one
/// segment, in stream order, and starts at a block boundary.
fn block_rates(served: &[Served], block: usize) -> Vec<f64> {
    let mut last = 0.0;
    served
        .chunks(block)
        .map(|c| {
            let end = c.iter().map(|s| s.done_s).fold(last, f64::max);
            let rate = c.len() as f64 / (end - last);
            last = end;
            rate
        })
        .collect()
}

/// Segments the stream is replayed in; a set-up runs after each.
const SEGMENTS: usize = SETUPS - 1;

/// The stream's `blocks` blocks cut into [`SEGMENTS`] runs of whole
/// blocks, as item ranges.
fn segments(blocks: usize, block: usize) -> Vec<Range<usize>> {
    (0..SEGMENTS)
        .map(|j| block * (j * blocks / SEGMENTS)..block * ((j + 1) * blocks / SEGMENTS))
        .collect()
}

/// Runs `serve_edit`.
pub fn edit(args: &Args) -> Result<Outcome, String> {
    let (mut setups, state) = SetUp::first(|| setup(args), args.trace)?;
    let clients = CLIENTS.min(nproc());
    print_shape("serve_edit", clients, nproc(), state.items.len());
    let blocks = state.items.len() / state.block;
    println!(
        "{blocks} blocks of {} requests in {SEGMENTS} segments; \
         throughput is the median over blocks",
        state.block
    );
    let (mut served, mut rates, mut wall) = (Vec::new(), Vec::new(), 0.0);
    for (j, range) in segments(blocks, state.block).into_iter().enumerate() {
        let (segment, segment_wall) = state.replay(clients, range)?;
        rates.extend(block_rates(&segment, state.block));
        served.extend(segment);
        wall += segment_wall;
        setups.after(j + 1, SEGMENTS)?;
    }
    let (daemon_failed, daemon_timed_out) = state.daemon_counters()?;
    let daemon = state.daemon();
    let served_stats = delta(cache_stats(daemon.server.session()), daemon.primed);
    let mut failed = served.iter().filter(|s| !s.ok).count();
    let edits = state.items.iter().filter(|i| i.edit.is_some()).count() as u64;
    if served_stats[4] != (state.items.len() as u64 - edits, edits) {
        eprintln!(
            "stackperf: measure cache {:?}, expected one miss per edit",
            served_stats[4]
        );
        failed += 1;
    }
    let samples: Vec<Sample> = served.iter().map(|s| s.sample).collect();
    if !args.trace {
        return Ok(Outcome {
            attempted: served.len(),
            failed,
            metrics: end_to_end(setups.median_s(), &samples, stats::median(&rates)),
        });
    }
    // The daemon's caches are no longer needed: free them before the
    // traced replay fills a second set.
    let mut state = state;
    state.daemon = None;
    let (l, traced_failed, traced_stats, traced_wall) = state.replay_traced(clients)?;
    if traced_stats != served_stats {
        eprintln!("stackperf: traced cache counters {traced_stats:?} != served {served_stats:?}");
        failed += 1;
    }
    let p50 = |f: &dyn Fn(&Served) -> f64| stats::median(&served.iter().map(f).collect::<Vec<_>>());
    let mut metrics = l.metrics(wall, traced_wall);
    metrics.extend(layers::cache_metrics(traced_stats));
    metrics.extend(layers::serve_metrics(
        [
            p50(&|s| s.queue_ms),
            p50(&|s| s.work_ms),
            p50(&|s| s.sample.ms - s.queue_ms - s.work_ms),
        ],
        daemon_failed,
        daemon_timed_out,
    ));
    Ok(Outcome {
        attempted: 2 * served.len(),
        failed: failed + traced_failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed gives the same stream and the same cache hit and
    /// miss counts, and every edit in a run is distinct.
    #[test]
    fn serve_edit_repeats_exactly_per_seed() {
        let args = Args {
            workload: String::new(),
            seed: 9,
            seconds: 1,
            trace: false,
        };
        let run = || {
            let state = setup(&args).unwrap();
            let clients = CLIENTS.min(nproc());
            let (served, _) = state.replay(clients, 0..state.items.len()).unwrap();
            assert!(served.iter().all(|s| s.ok));
            let d = state.daemon();
            let counts = delta(cache_stats(d.server.session()), d.primed);
            let list: Vec<_> = state
                .items
                .iter()
                .map(|i| (i.program, i.target, i.edit.clone()))
                .collect();
            (list, counts)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        let mut edits: Vec<_> = a.0.iter().filter(|i| i.2.is_some()).collect();
        let n = edits.len();
        edits.sort();
        edits.dedup();
        assert_eq!(edits.len(), n, "edits repeat");
    }
}
