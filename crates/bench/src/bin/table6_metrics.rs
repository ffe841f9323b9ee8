fn main() {
    drishti_bench::run(&[&drishti_bench::figures::TABLE6_METRICS]);
}
