//! Capture to file: the one path from generators to an `.atrc` file.
//!
//! `capture_streams`, the one capture path, drains one [`TraceSource`] per core into a
//! [`TraceWriter`]. [`capture_mix`] and [`capture_benchmarks`] create the writer, label
//! it, call it, finish, and return what the capture cost; [`crate::Corpus::materialize`] and
//! `tracectl capture` are loops over them. The generators are parameterized with
//! `opts.llc_sets`, the value the header records, so a file cannot claim a geometry other
//! than the one it was drawn for.
//!
//! # Parallel, in a fixed order
//!
//! Every core's stream is independent, so `capture_streams` generates and encodes them
//! on `min(available_parallelism(), cores)` scoped worker threads — worker `w` owns the
//! cores `c` with `c % workers == w` — while the calling thread only writes. Each core
//! hands its framed chunks over a bounded channel of 32 chunks, so resident memory is
//! O(depth × `records_per_block` × cores) whatever the capture length.
//! The calling thread writes **chunk `j` of every core, in core order, before chunk
//! `j + 1` of any core**: exactly what a [`TraceWriter`] fed one record per core, round
//! robin, writes, so the file's bytes do not depend on the worker count. With one worker
//! nothing is spawned. The workers are plain scoped threads, never the sweep's pool
//! workers: a worker blocks whenever the writer is behind.
//!
//! Faults and errors belong to the calling thread: `atrc.write` fires once per chunk in
//! file order and `atrc.sync` at finish, so a fault plan has the same outcome at every
//! worker count. A write error closes the channels; each worker stops at its next send
//! and the scope joins them before the error is returned.

use std::io;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread;

use cache_sim::trace::TraceSource;
use workloads::{benchmark_by_name, BenchmarkSpec, WorkloadMix};

use crate::writer::{encode_chunk, Chunk, TraceCaptureOptions, TraceSummary, TraceWriter};

/// Encoded chunks a core's worker may run ahead of the writer. Capturing two 16-core
/// mixes of 1.1 M records per core on a 2-thread Xeon took 0.57–0.62 s at depth 32 and
/// 0.63–0.66 s at depth 2.
const CHANNEL_DEPTH: usize = 32;

/// Capture workers are named `atrc-capture-{w}`, so a profiler or a leak check can tell
/// them apart.
const WORKER_NAME: &str = "atrc-capture";

/// Capture `accesses_per_core` accesses of each source (reset first) into `writer`, the
/// source at index `c` as core `c` (one source per core of the writer), labeled with the
/// source's label. Generation and
/// encoding run on up to `available_parallelism()` threads; the file's bytes are those of
/// a single-threaded capture (see the [module docs](self)).
pub(crate) fn capture_streams(
    writer: &mut TraceWriter,
    sources: &mut [Box<dyn TraceSource>],
    accesses_per_core: u64,
) -> io::Result<()> {
    let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    capture_streams_on(writer, sources, accesses_per_core, threads)
}

/// [`capture_streams`] on `workers` threads (clamped to `1..=cores`).
pub(crate) fn capture_streams_on(
    writer: &mut TraceWriter,
    sources: &mut [Box<dyn TraceSource>],
    accesses_per_core: u64,
    workers: usize,
) -> io::Result<()> {
    let cores = writer.num_cores();
    assert_eq!(sources.len(), cores, "one source per core of the writer");
    for (core, source) in sources.iter().enumerate() {
        writer.begin_core(core, &source.label())?;
    }
    let block = writer.records_per_block();
    let workers = workers.clamp(1, cores);
    let mut owned: Vec<Vec<(usize, &mut dyn TraceSource)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (core, source) in sources.iter_mut().enumerate() {
        owned[core % workers].push((core, source.as_mut()));
    }
    if workers == 1 {
        return draw_chunks(&mut owned[0], accesses_per_core, block, |_, chunk| {
            writer.write_chunk(&chunk)
        });
    }
    thread::scope(|scope| {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..cores).map(|_| sync_channel(CHANNEL_DEPTH)).unzip();
        let mut txs: Vec<Vec<SyncSender<Chunk>>> = (0..workers).map(|_| Vec::new()).collect();
        for (core, tx) in senders.into_iter().enumerate() {
            txs[core % workers].push(tx);
        }
        for (w, (mut mine, txs)) in owned.into_iter().zip(txs).enumerate() {
            let worker = thread::Builder::new().name(format!("{WORKER_NAME}-{w}"));
            worker.spawn_scoped(scope, move || {
                // A send fails only once the writer has returned: stop, nothing to add.
                let _ = draw_chunks(&mut mine, accesses_per_core, block, |i, chunk| {
                    txs[i].send(chunk)
                });
            })?;
        }
        // Returning drops `receivers`, which is what stops the workers on an error.
        for _ in 0..accesses_per_core.div_ceil(block as u64) {
            for rx in &receivers {
                // A closed channel here means its worker panicked; the scope re-raises it.
                let chunk = rx
                    .recv()
                    .map_err(|_| io::Error::other("a capture worker stopped"))?;
                writer.write_chunk(&chunk)?;
            }
        }
        Ok(())
    })
}

/// Reset every source, then draw and encode the streams a block at a time: block `j` of
/// every source, in order, before block `j + 1` of any. `deliver(i, chunk)` takes
/// `sources[i]`'s next chunk; an error from it stops the drain.
fn draw_chunks<E>(
    sources: &mut [(usize, &mut dyn TraceSource)],
    accesses_per_core: u64,
    records_per_block: usize,
    mut deliver: impl FnMut(usize, Chunk) -> Result<(), E>,
) -> Result<(), E> {
    for (_, source) in sources.iter_mut() {
        source.reset();
    }
    let (mut block, mut raw) = (Vec::with_capacity(records_per_block), Vec::new());
    let mut drawn = 0u64;
    while drawn < accesses_per_core {
        let n = (accesses_per_core - drawn).min(records_per_block as u64) as usize;
        for (i, (core, source)) in sources.iter_mut().enumerate() {
            block.clear();
            block.extend((0..n).map(|_| source.next_access()));
            deliver(i, encode_chunk(*core, &block, &mut raw))?;
        }
        drawn += n as u64;
    }
    Ok(())
}

/// Capture a whole workload mix (one stream per core, `accesses_per_core` records each)
/// to a new trace file at `path`, labeled `mix{id}:{n}cores:sets{llc_sets}:seed{seed}`
/// unless `label` overrides it.
pub fn capture_mix(
    path: &Path,
    mix: &WorkloadMix,
    seed: u64,
    accesses_per_core: u64,
    label: Option<&str>,
    opts: TraceCaptureOptions,
) -> io::Result<TraceSummary> {
    let (cores, sets) = (mix.benchmarks.len(), opts.llc_sets);
    let default = format!("mix{}:{cores}cores:sets{sets}:seed{seed}", mix.id);
    let mut writer = TraceWriter::with_options(path, cores, label.unwrap_or(&default), opts)?;
    let mut sources = mix.trace_sources(sets as usize, seed);
    capture_streams(&mut writer, &mut sources, accesses_per_core)?;
    writer.finish()
}

/// Capture a list of named Table 4 benchmarks (one per core, in order) to a new trace
/// file at `path`, labeled `bench:{a+b+..}:sets{llc_sets}:seed{seed}` unless `label`
/// overrides it. Every name is resolved before the file is created, so a typo is an
/// [`io::ErrorKind::InvalidInput`] error that leaves nothing behind.
pub fn capture_benchmarks(
    path: &Path,
    names: &[&str],
    seed: u64,
    accesses_per_core: u64,
    label: Option<&str>,
    opts: TraceCaptureOptions,
) -> io::Result<TraceSummary> {
    let specs: Vec<&BenchmarkSpec> = names
        .iter()
        .map(|n| {
            benchmark_by_name(n).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown benchmark {n:?}"),
                )
            })
        })
        .collect::<io::Result<_>>()?;
    let sets = opts.llc_sets;
    let default = format!("bench:{}:sets{sets}:seed{seed}", names.join("+"));
    let mut writer = TraceWriter::with_options(path, specs.len(), label.unwrap_or(&default), opts)?;
    let mut sources: Vec<Box<dyn TraceSource>> = specs
        .iter()
        .enumerate()
        .map(|(core, spec)| Box::new(spec.trace(core, sets as usize, seed)) as Box<dyn TraceSource>)
        .collect();
    capture_streams(&mut writer, &mut sources, accesses_per_core)?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{decode_all, read_header};
    use cache_sim::trace::MemAccess;
    use workloads::{generate_mixes, StudyKind};

    fn sets(llc_sets: u32) -> TraceCaptureOptions {
        TraceCaptureOptions {
            llc_sets,
            ..Default::default()
        }
    }

    /// The oracle: `sources` pushed into a [`TraceWriter`] one record per core, round
    /// robin. Returns the file's bytes.
    fn round_robin(
        path: &Path,
        sources: &mut [Box<dyn TraceSource>],
        accesses: u64,
        opts: TraceCaptureOptions,
    ) -> Vec<u8> {
        let mut w = TraceWriter::with_options(path, sources.len(), "t", opts).unwrap();
        for (core, source) in sources.iter_mut().enumerate() {
            source.reset();
            w.begin_core(core, &source.label()).unwrap();
        }
        for _ in 0..accesses {
            for (core, source) in sources.iter_mut().enumerate() {
                w.push(core, source.next_access()).unwrap();
            }
        }
        w.finish().unwrap();
        std::fs::read(path).unwrap()
    }

    fn live(sources: &mut [Box<dyn TraceSource>], accesses: u64) -> Vec<Vec<MemAccess>> {
        sources
            .iter_mut()
            .map(|s| {
                s.reset();
                (0..accesses).map(|_| s.next_access()).collect()
            })
            .collect()
    }

    #[test]
    fn capture_streams_writes_the_round_robin_layout_at_every_worker_count() {
        let path = std::env::temp_dir().join("trace_io_capture_oracle.atrc");
        let oracle_path = std::env::temp_dir().join("trace_io_capture_oracle_ref.atrc");
        let mix = generate_mixes(StudyKind::Cores4, 1, 9).remove(0);
        let gcc = benchmark_by_name("gcc").unwrap();
        let cases: Vec<(Vec<Box<dyn TraceSource>>, usize)> = vec![
            (mix.trace_sources(64, 9), 4),
            (vec![Box::new(gcc.trace(0, 64, 9))], 4),
            (
                mix.trace_sources(64, 9),
                crate::format::DEFAULT_BLOCK_RECORDS,
            ),
        ];
        for (mut sources, records_per_block) in cases {
            let cores = sources.len();
            let opts = TraceCaptureOptions {
                records_per_block,
                llc_sets: 64,
            };
            let block = records_per_block as u64;
            for accesses in [0, 1, block, 2 * block + 3] {
                let expect = round_robin(&oracle_path, &mut sources, accesses, opts);
                let streams = live(&mut sources, accesses);
                for workers in [1, 2, 3, cores, cores + 1] {
                    let mut w = TraceWriter::with_options(&path, cores, "t", opts).unwrap();
                    capture_streams_on(&mut w, &mut sources, accesses, workers).unwrap();
                    w.finish().unwrap();
                    let case = format!(
                        "{cores} cores, {accesses} accesses, blocks of {records_per_block}, \
                         {workers} workers"
                    );
                    assert!(
                        std::fs::read(&path).unwrap() == expect,
                        "{case}: bytes differ"
                    );
                    // An empty stream is valid on disk but never replayable.
                    if accesses > 0 {
                        let decoded = decode_all(&path).unwrap();
                        assert_eq!(decoded, streams, "{case}: streams differ");
                    }
                }
            }
        }
        std::fs::remove_file(path).ok();
        std::fs::remove_file(oracle_path).ok();
    }

    #[test]
    fn mix_capture_reproduces_live_trace_sources() {
        let path = std::env::temp_dir().join("trace_io_capture_live.atrc");
        let oracle_path = std::env::temp_dir().join("trace_io_capture_live_ref.atrc");
        let mix = generate_mixes(StudyKind::Cores4, 1, 9).remove(0);
        let opts = TraceCaptureOptions {
            records_per_block: 64,
            llc_sets: 64,
        };
        capture_mix(&path, &mix, 9, 200, Some("t"), opts).unwrap();
        let header = read_header(&path).unwrap();
        let labels: Vec<&str> = header.cores.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, mix.benchmarks);
        let mut sources = mix.trace_sources(64, 9);
        let expect = round_robin(&oracle_path, &mut sources, 200, opts);
        assert!(std::fs::read(&path).unwrap() == expect, "bytes differ");
        assert_eq!(decode_all(&path).unwrap(), live(&mut sources, 200));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(oracle_path).ok();
    }

    #[test]
    fn unknown_benchmark_name_is_rejected() {
        let path = std::env::temp_dir().join("trace_io_capture_unknown.atrc");
        std::fs::remove_file(&path).ok();
        let err = capture_benchmarks(&path, &["gcc", "nope"], 1, 10, None, sets(64)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "a typo must not leave a file behind");
    }

    #[test]
    fn labels_name_the_capture_unless_overridden() {
        let dir = std::env::temp_dir();
        let mix = generate_mixes(StudyKind::Cores4, 1, 3).remove(0);
        let path = dir.join("trace_io_capture_labels.atrc");

        capture_mix(&path, &mix, 3, 10, None, sets(64)).unwrap();
        let header = read_header(&path).unwrap();
        assert_eq!(header.label, "mix0:4cores:sets64:seed3");
        assert_eq!(header.llc_sets, 64);
        let labels: Vec<&str> = header.cores.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, mix.benchmarks);

        capture_benchmarks(&path, &["gcc", "lbm"], 5, 10, None, sets(128)).unwrap();
        assert_eq!(
            read_header(&path).unwrap().label,
            "bench:gcc+lbm:sets128:seed5"
        );

        let small_blocks = TraceCaptureOptions {
            records_per_block: 4,
            llc_sets: 64,
        };
        let summary = capture_mix(&path, &mix, 3, 10, Some("mine"), small_blocks).unwrap();
        assert_eq!(read_header(&path).unwrap().label, "mine");
        assert_eq!(summary.total_records, 40);
        let trace = crate::MappedTrace::open(&path).unwrap();
        assert_eq!(trace.chunk_count(0), 3, "10 records in blocks of 4");
        assert_eq!(decode_all(&path).unwrap().len(), 4);
        std::fs::remove_file(path).ok();
    }
}
