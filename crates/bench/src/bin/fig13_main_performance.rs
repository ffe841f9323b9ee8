fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG13_MAIN_PERFORMANCE]);
}
