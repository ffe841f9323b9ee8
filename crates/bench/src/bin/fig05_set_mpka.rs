fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG05_SET_MPKA]);
}
