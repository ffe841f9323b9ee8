fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG04_PRED_HIST]);
}
