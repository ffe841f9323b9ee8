fn main() {
    drishti_bench::run(&[&drishti_bench::figures::TABLE5_WPKI]);
}
