fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG20_LLC_SIZE]);
}
