//! Regenerates the paper's tables, figures and ablations: every artifact
//! by default, or only the ones named as arguments
//! (`repro_all fig5 traffic`). An unknown name exits 2 and lists the
//! names.
use rt_repro::context::PreparedCase;
use rt_repro::{ablations, Context};

/// One artifact: its name (also its `results/<name>.txt` file) and the
/// function that renders it.
type Artifact = (&'static str, fn(&Context) -> String);

/// Every artifact, in the order a full run writes them.
const ARTIFACTS: &[Artifact] = &[
    ("table1", |ctx| rt_repro::table1::generate(ctx).render()),
    ("fig1", |ctx| rt_repro::fig1::generate(ctx).render()),
    ("fig2", |ctx| rt_repro::fig2::generate(ctx).render()),
    ("fig3", |ctx| rt_repro::fig3::generate(ctx).render()),
    ("fig4", |ctx| rt_repro::fig4::generate(ctx).render()),
    ("fig5", |ctx| rt_repro::fig5::generate(ctx).render()),
    ("fig6", |ctx| rt_repro::fig6::generate(ctx).render()),
    ("fig7", |ctx| rt_repro::fig7::generate(ctx).render()),
    ("speedups", |ctx| rt_repro::speedups::generate(ctx).render()),
    ("ablation_indices", |ctx| {
        ablations::render_index_width(&ablations::index_width(ctx))
    }),
    ("ablation_formats", |ctx| {
        per_case(ctx, |c| {
            ablations::render_formats(c.name(), &ablations::formats(c))
        })
    }),
    ("ablation_precision", |ctx| {
        per_case(ctx, |c| {
            ablations::render_value_encoding(c.name(), &ablations::value_encoding(c))
        })
    }),
    ("traffic", |ctx| {
        rt_repro::traffic::render(&rt_repro::traffic::generate(ctx))
    }),
    ("ablation_sell", |ctx| {
        ablations::render_sell_vs_csr(&ablations::sell_vs_csr(ctx))
    }),
    ("ablation_rowmap", |ctx| {
        ablations::render_row_mapping(&ablations::row_mapping(ctx))
    }),
    ("ablation_repro", |ctx| {
        ablations::render_reproducibility(&ablations::reproducibility(ctx))
    }),
];

/// `render` on liver 1 and prostate 1, each table followed by a blank
/// line.
fn per_case(ctx: &Context, render: impl Fn(&PreparedCase) -> String) -> String {
    [ctx.liver1(), ctx.prostate1()]
        .into_iter()
        .map(|c| render(c) + "\n")
        .collect()
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Artifact> = if names.is_empty() {
        ARTIFACTS.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                ARTIFACTS
                    .iter()
                    .find(|(name, _)| name == n)
                    .unwrap_or_else(|| {
                        let all: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
                        eprintln!("unknown artifact: {n}\nartifacts: {}", all.join(" "));
                        std::process::exit(2)
                    })
            })
            .collect()
    };
    let ctx = rt_bench::context();
    for (name, render) in selected {
        rt_bench::emit(name, &render(&ctx));
    }
}
