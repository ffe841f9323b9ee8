fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG11B_LATENCY_SWEEP]);
}
