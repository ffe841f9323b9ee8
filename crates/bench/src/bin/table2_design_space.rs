fn main() {
    drishti_bench::run(&[&drishti_bench::figures::TABLE2_DESIGN_SPACE]);
}
