//! Every table and figure in one process; see [`drishti_bench::run`].

fn main() {
    drishti_bench::run(drishti_bench::figures::ALL);
}
