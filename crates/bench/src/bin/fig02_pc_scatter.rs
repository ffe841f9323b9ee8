fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG02_PC_SCATTER]);
}
