fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG11A_NO_NOCSTAR]);
}
