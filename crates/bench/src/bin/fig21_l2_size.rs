fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG21_L2_SIZE]);
}
