fn main() {
    drishti_bench::run(&[&drishti_bench::figures::FIG22_DRAM_CHANNELS]);
}
