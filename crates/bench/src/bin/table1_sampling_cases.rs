fn main() {
    drishti_bench::run(&[&drishti_bench::figures::TABLE1_SAMPLING_CASES]);
}
