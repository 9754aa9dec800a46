//! Walkthroughs of the paper's Figures 1–3.
//!
//! * `fig1` — multilevel reversible anonymization on a small sub-graph:
//!   per-level segment sets added with each key, then peeled back.
//! * `fig2` — the RGE transition table, with the paper's exact 3×3 cell
//!   values and the forward s8→s14 / backward s14→s8 walkthrough.
//! * `fig3` — RPLE pre-assigned forward/backward transition lists and the
//!   `Ri mod T` index symmetry.
//!
//! Run with: `cargo run --example toolkit_demo -- [fig1|fig2|fig3|all]`

use cloak::{RegionState, TableView};
use reversecloak::prelude::*;
use roadnet::grid_city;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "fig1" => fig1()?,
        "fig2" => fig2(),
        "fig3" => fig3(),
        "all" => {
            fig1()?;
            fig2();
            fig3();
        }
        other => {
            eprintln!("unknown figure `{other}`; use fig1, fig2, fig3 or all");
            std::process::exit(2);
        }
    }
    Ok(())
}

/// Figure 1: multilevel reversible location anonymization.
fn fig1() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Figure 1: multilevel reversible anonymization ===");
    let net = grid_city(5, 5, 100.0);
    let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
    // L1 needs 3 segments, L2 six, L3 nine — like the figure's growth.
    let profile = PrivacyProfile::builder()
        .level(LevelRequirement::with_k(3))
        .level(LevelRequirement::with_k(6))
        .level(LevelRequirement::with_k(9))
        .build()?;
    let manager = KeyManager::from_seed(3, 2024);
    let keys: Vec<Key256> = manager.iter().map(|(_, k)| k).collect();
    let user = SegmentId(18); // the figure's s18 holds the actual user
    let engine = RgeEngine::new();
    let out = cloak::anonymize(&net, &snapshot, user, &profile, &keys, 1, &engine)?;

    println!("L0 (actual user): {{{user}}}");
    let mut cursor = 0;
    for (i, meta) in out.payload.levels.iter().enumerate() {
        let added: Vec<String> = out.chain[cursor..cursor + meta.count as usize]
            .iter()
            .map(|s| s.to_string())
            .collect();
        cursor += meta.count as usize;
        println!(
            "Key{} expands to L{}: adds {{{}}}",
            i + 1,
            i + 1,
            added.join(", ")
        );
    }

    println!("-- de-anonymization --");
    for level in (0..3).rev() {
        let view = cloak::deanonymize(
            &net,
            &out.payload,
            &manager.keys_down_to(Level(level))?,
            &engine,
        )?;
        let segs: Vec<String> = view.segments.iter().map(|s| s.to_string()).collect();
        println!("reduce to L{level}: {{{}}}", segs.join(", "));
    }
    println!();
    Ok(())
}

/// Figure 2: the RGE transition table.
fn fig2() {
    println!("=== Figure 2: reversible global expansion ===");
    // The paper's state: CloakA = {s8, s9, s11} (rows, by length) and
    // CanA = {s6, s10, s14} (columns, by length); s8 is the last added
    // segment, R_i = 5.
    let rows = [SegmentId(9), SegmentId(8), SegmentId(11)];
    let cols = [SegmentId(6), SegmentId(14), SegmentId(10)];
    let table = TableView::new(&rows, &cols);
    println!("transition table (cell = ((i-1)+(j-1)) mod |CanA|):");
    print!("{table}");
    let r_i = 5u64;
    let pick = (r_i % table.col_count() as u64) as usize;
    println!(
        "R_i = {r_i}  =>  pick p_i = {r_i} mod {} = {pick}",
        table.col_count()
    );
    let row_s8 = 1; // s8's row index in length order
    let j = table.forward_col(row_s8, pick);
    println!(
        "forward:  last added s8 (row {row_s8}) + pick {pick} -> column {} = {}",
        j,
        table.cols()[j]
    );
    let i = table
        .backward_row(j, pick, 0)
        .expect("the paper's example is in range");
    println!(
        "backward: removed {} (column {j}) + pick {pick} -> row {} = {}",
        table.cols()[j],
        i,
        table.rows()[i]
    );
    println!();
}

/// Figure 3: RPLE pre-assigned transition lists.
fn fig3() {
    println!("=== Figure 3: reversible pre-assignment-based local expansion ===");
    let net = grid_city(4, 4, 100.0);
    let t_len = 6;
    let engine = RpleEngine::build(&net, t_len);
    let tables = engine.tables();
    println!(
        "Algorithm 1 pre-assignment over {} segments, T = {t_len}: {} links placed, {} dropped",
        net.segment_count(),
        tables.placed_links(),
        tables.dropped_links()
    );
    let s8 = SegmentId(8);
    print!("{}", tables.render_lists(s8));

    // The figure's walkthrough: from s8, index R_i mod 6 picks the next
    // segment; with the same key the backward list selects s8 again.
    let r_i = 10u64;
    let idx = (r_i % t_len as u64) as usize;
    if let Some(next) = tables.forward(s8, idx) {
        println!(
            "forward:  from {s8}, index {r_i} mod {t_len} = {idx} -> FT[{s8}][{idx}] = {next}"
        );
        let back = tables.backward(next, idx).expect("duality");
        println!("backward: from {next}, same index {idx} -> BT[{next}][{idx}] = {back}");
        assert_eq!(back, s8);
    } else {
        println!("slot {idx} of FT[{s8}] is unassigned; real steps void and redraw");
    }

    // Verify the duality invariant on the whole map.
    assert_eq!(tables.duality_violations(), 0);
    println!("duality invariant FT[s][j] = sp <=> BT[sp][j] = s holds map-wide");
    println!();

    // Use RegionState to show one real reversible step.
    let region = RegionState::from_segments(&net, [s8]);
    let mut stream = DrawStream::new(Key256::from_seed(99), b"fig3");
    use cloak::ReversibleEngine as _;
    if let Ok(acc) = engine.forward_step(
        &net,
        &region,
        s8,
        &mut stream,
        &SpatialTolerance::Unlimited,
        &mut cloak::StepScratch::new(),
    ) {
        println!(
            "one keyed step: {s8} -> {} (round {}, {} voided)",
            acc.segment, acc.draws, acc.voided
        );
    }
}
