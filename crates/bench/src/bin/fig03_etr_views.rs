fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG03_ETR_VIEWS]);
}
