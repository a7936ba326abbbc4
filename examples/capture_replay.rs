//! Capture a 4-core workload mix to a binary trace file, replay it through the
//! experiment runner, and show that the replayed corpus reproduces the live synthetic
//! generators' per-application results exactly.
//!
//! ```sh
//! cargo run --release --example capture_replay
//! ```

use adapt_llc::experiments::runner::{evaluate_prepared, MixSource, ReplayConfig};
use adapt_llc::experiments::{ExperimentScale, PolicyKind};
use adapt_llc::traces::{capture_mix, TraceCaptureOptions};
use adapt_llc::workloads::{generate_mixes, StudyKind};

fn main() {
    let scale = ExperimentScale::Smoke;
    let config = scale.system_config(StudyKind::Cores4);
    let mix = generate_mixes(StudyKind::Cores4, 1, scale.seed()).remove(0);
    let llc_sets = config.llc.geometry.num_sets();
    let instructions = scale.instructions_per_core();

    // 1. Capture the mix once (2x the instruction budget so replay never wraps early).
    let path = std::env::temp_dir().join("capture_replay_example.atrc");
    let captured = capture_mix(
        &path,
        &mix,
        scale.seed(),
        2 * instructions,
        None,
        TraceCaptureOptions::for_llc_sets(llc_sets),
    )
    .expect("capture");
    println!(
        "captured {:?} -> {} ({} records, {:.2} bytes/record)",
        mix.benchmarks,
        path.display(),
        captured.total_records,
        captured.bytes_per_record()
    );

    // 2. Evaluate the same mix from both provenances. Each side takes the path every
    //    sweep takes: materialize the mix once — its live generators, or the file mapped
    //    and streamed a block at a time — then run the policy over the shared streams.
    let policy = PolicyKind::AdaptBp32;
    let evaluate = |source: MixSource| {
        let prepared = source
            .materialize_with(llc_sets, scale.seed(), &ReplayConfig::default())
            .expect("materialize");
        let built = policy.build_dispatch(&config, &mix.thrashing_slots());
        evaluate_prepared(
            &config,
            &prepared,
            policy,
            built,
            instructions,
            scale.seed(),
        )
    };
    let live = evaluate(MixSource::synthetic(mix.clone()));
    let replay = evaluate(MixSource::replayed_with_id(&path, 0).expect("open corpus"));

    println!(
        "\n{:<8} {:>10} {:>10} {:>12} {:>12}",
        "app", "live IPC", "replay", "live MPKI", "replay"
    );
    for (a, b) in live.per_app.iter().zip(&replay.per_app) {
        println!(
            "{:<8} {:>10.4} {:>10.4} {:>12.4} {:>12.4}",
            a.name, a.ipc, b.ipc, a.llc_mpki, b.llc_mpki
        );
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.llc_mpki, b.llc_mpki);
    }
    println!(
        "\nweighted speedup: live {:.4} == replay {:.4}",
        live.weighted_speedup(),
        replay.weighted_speedup()
    );
    assert_eq!(live.weighted_speedup(), replay.weighted_speedup());
    println!("capture -> replay round-trip is bit-exact");
    std::fs::remove_file(path).ok();
}
