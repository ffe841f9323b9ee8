fn main() {
    drishti_bench::run(&[&drishti_bench::figures::SCALING]);
}
