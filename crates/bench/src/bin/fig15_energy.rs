fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG15_ENERGY]);
}
