fn main() {
    drishti_bench::run(&[&drishti_bench::figures::TABLE7_APPLICABILITY]);
}
