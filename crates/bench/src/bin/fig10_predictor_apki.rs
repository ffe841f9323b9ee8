fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG10_PREDICTOR_APKI]);
}
