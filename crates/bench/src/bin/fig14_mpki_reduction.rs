fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG14_MPKI_REDUCTION]);
}
