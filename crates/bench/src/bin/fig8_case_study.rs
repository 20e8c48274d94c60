//! Figure 8 + §7.5 case study: the synthetic two-branch Transformer on 8
//! devices. GraphPipe and SPP find the same model partition, but GraphPipe
//! pipelines the two branches concurrently: depth 4 instead of 8, and the
//! freed activation memory admits a larger micro-batch.
//!
//! Prints both pipeline schedules as ASCII Gantt charts and decomposes the
//! end-to-end gain into its two sources (paper: ~10% + ~10% = ~20%).

use graphpipe::prelude::*;

fn main() {
    let model = zoo::case_study(&zoo::MmtConfig::default());
    // §7.5: "it is common practice for the system to operate close to
    // memory limits" — a 384 MiB budget makes wide weight replication
    // infeasible, producing the paper's one-layer-per-device partition.
    let cluster = Cluster::summit_like(8).with_memory_capacity(384 << 20);
    let mini_batch = 128;
    let session = Session::builder()
        .model(model.clone())
        .cluster(cluster.clone())
        .mini_batch(mini_batch)
        .build()
        .expect("the case study is a valid planning problem");

    let gpp = session
        .evaluate(PlannerKind::GraphPipe)
        .expect("GraphPipe plans the case study");
    let spp = session
        .evaluate(PlannerKind::PipeDream)
        .expect("PipeDream plans the case study");
    // "Parallel": GPP partition pinned to SPP's micro-batch size.
    let par_plan = parallel_ablation(&model, &cluster, mini_batch).expect("ablation plans");
    let par = graphpipe::simulate_plan(&model, &cluster, &par_plan).expect("simulates");

    println!("# Figure 8 / §7.5 case study: two-branch Transformer on 8 GPUs\n");
    println!("## SPP (PipeDream) strategy");
    println!("{}", spp.plan.describe());
    println!(
        "depth {}, micro-batch {}, throughput {:.0} samples/s\n",
        spp.plan.pipeline_depth(),
        spp.plan.max_micro_batch(),
        spp.report.throughput
    );
    println!("{}", render_gantt(&spp.report, &spp.plan.stage_graph, 100));

    println!("## GraphPipe strategy");
    println!("{}", gpp.plan.describe());
    println!(
        "depth {}, micro-batch {}, throughput {:.0} samples/s\n",
        gpp.plan.pipeline_depth(),
        gpp.plan.max_micro_batch(),
        gpp.report.throughput
    );
    println!("{}", render_gantt(&gpp.report, &gpp.plan.stage_graph, 100));

    let g_par = par.throughput / spp.report.throughput;
    let g_all = gpp.report.throughput / spp.report.throughput;
    println!("## Gain decomposition (§7.5)");
    println!(
        "parallel-stage execution only (same micro-batch): {:.1}%",
        (g_par - 1.0) * 100.0
    );
    println!(
        "plus larger micro-batch ({} -> {}):             {:.1}%",
        spp.plan.max_micro_batch(),
        gpp.plan.max_micro_batch(),
        (g_all - 1.0) * 100.0
    );
    println!("\npaper: ~10% from concurrent branches, ~20% total; depth 8 (SPP) vs 4 (GPP).");
}
