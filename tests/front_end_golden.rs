//! The front end's text does not move a byte: `to_dot` of each built-in kernel's DFG
//! with its critical-path annotation, and every reference's rendered name, as the
//! `srra dot` command and the reuse analysis printed them when node labels were
//! still stored strings and names were rendered per use.

use srra_dfg::{to_dot, CriticalPathAnalysis, DataFlowGraph, LatencyModel, StorageMap};
use srra_ir::Kernel;
use srra_reuse::ReuseAnalysis;

/// The CLI's seven kernels: `example`, then the paper suite.
fn kernels() -> Vec<Kernel> {
    let mut kernels = vec![srra_ir::examples::paper_example()];
    kernels.extend(
        srra_kernels::paper_suite()
            .into_iter()
            .map(|spec| spec.kernel),
    );
    kernels
}

const DOT: [&str; 7] = [
    include_str!("golden/dot/example.dot"),
    include_str!("golden/dot/fir.dot"),
    include_str!("golden/dot/dec_fir.dot"),
    include_str!("golden/dot/mat.dot"),
    include_str!("golden/dot/imi.dot"),
    include_str!("golden/dot/pat.dot"),
    include_str!("golden/dot/bic.dot"),
];

/// `kernel<TAB>ReuseSummary::rendered()`, one reference per line in table order.
const RENDERED: &str = "\
paper_example\ta[k]
paper_example\tb[k][j]
paper_example\td[i][k]
paper_example\tc[j]
paper_example\te[i][j][k]
fir\ty[i]
fir\tc[j]
fir\tx[i + j]
dec_fir\ty[i]
dec_fir\tc[j]
dec_fir\tx[4*i + j]
mat\tc[i][j]
mat\ta[i][k]
mat\tb[k][j]
imi\timg1[i][j]
imi\timg2[i][j]
imi\tout[s][i][j]
pat\thits[i]
pat\ttext[i + j]
pat\tpattern[j]
bic\tcorr[r][c]
bic\timg[r + u][c + v]
bic\ttmpl[u][v]
";

#[test]
fn dot_output_of_every_kernel_is_pinned() {
    for (kernel, golden) in kernels().iter().zip(DOT) {
        let dfg = DataFlowGraph::from_kernel(kernel);
        let analysis =
            CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram());
        assert_eq!(to_dot(&dfg, Some(&analysis)), golden, "{}", kernel.name());
    }
}

#[test]
fn rendered_reference_names_are_pinned() {
    let mut rendered = String::new();
    for kernel in kernels() {
        for summary in &ReuseAnalysis::of(&kernel) {
            rendered.push_str(kernel.name());
            rendered.push('\t');
            rendered.push_str(summary.rendered());
            rendered.push('\n');
        }
    }
    assert_eq!(rendered, RENDERED);
}
