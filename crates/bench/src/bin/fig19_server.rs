fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG19_SERVER]);
}
