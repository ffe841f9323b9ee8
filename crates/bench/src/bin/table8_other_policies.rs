fn main() {
    drishti_bench::run(&[&drishti_bench::figures::TABLE8_OTHER_POLICIES]);
}
