fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG16_SCURVE]);
}
