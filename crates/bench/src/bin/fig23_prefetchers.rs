fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG23_PREFETCHERS]);
}
