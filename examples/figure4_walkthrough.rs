//! The paper's Figure 4, reconstructed from a live pipeline trace.
//!
//! Figure 4 walks the 181.mcf loop of Figure 1 through the two-pass
//! machine: a load misses in the A-pipe, its dependent instructions are
//! deferred and marked in the coupling queue, independent instructions
//! (and further misses) keep issuing, and the B-pipe later re-executes
//! the deferred work as results arrive. This example runs the mcf-like
//! kernel with tracing enabled and draws one steady-state iteration as
//! two pipeline diagrams (`ff_trace pipeview`): the A-pipe side, where
//! it dispatches, and the B-pipe side, where it retires.
//!
//! ```text
//! cargo run --release --example figure4_walkthrough
//! ```

use ff_bench::traceview::{lifecycles, pipeview, PipeviewOpts};
use fleaflicker::core::{MachineConfig, Trace, TwoPass};
use fleaflicker::workloads::{benchmark_by_name, Scale};

fn main() {
    let w = benchmark_by_name("181.mcf", Scale::Tiny).expect("mcf-like is built in");
    let mut trace = Trace::new();
    let report = TwoPass::new(&w.program, w.memory.clone(), MachineConfig::paper_table1())
        .run_with_sink(w.budget, &mut trace);

    println!(
        "mcf-like on the two-pass machine: {} cycles, {} retired\n",
        report.cycles, report.retired
    );
    println!("program (one loop iteration starts at the `ld8 r10 = ...` group):\n");
    for (pc, insn) in w.program.iter().enumerate().take(20) {
        println!("  {pc:>3}: {insn}");
    }

    // One steady-state iteration (skip warmup): the mcf loop body is 13
    // instructions; iteration k covers seqs ~[6 + 13k, 6 + 13(k+1)).
    let seq_from = 6 + 13 * 8;
    let seq_to = seq_from + 12;
    let events = trace.events();
    let flights: Vec<_> =
        lifecycles(events).into_iter().filter(|f| (seq_from..=seq_to).contains(&f.seq)).collect();
    let dispatch = flights.iter().filter_map(|f| f.dispatch.map(|(c, _)| c)).min().unwrap_or(0);
    let retire = flights.iter().filter_map(|f| f.retire).min().unwrap_or(0);
    for (side, at) in [("A-pipe: dispatch", dispatch), ("B-pipe: merge and retire", retire)] {
        println!("\n{side} (seqs {seq_from}..={seq_to}):\n");
        let from = at.saturating_sub(2);
        print!("{}", pipeview(events, PipeviewOpts { from, to: from + 80, seq_from, seq_to }));
    }
    println!(
        "\nReading it like Figure 4: arc-field loads (A) start misses in the A-pipe and\n\
         sit in the queue (q) until their fills land; the dependent node loads and flow\n\
         updates (d) execute for the first time in the B-pipe (B)."
    );
}
