//! Device-level constants of the reconfigurable GPU being modelled.

/// Physical and calibration constants of an A100-class reconfigurable GPU.
///
/// The defaults ([`DeviceSpec::a100`]) follow the published A100 SXM4-40GB
/// numbers: 7 GPCs of 14 SMs at 1.41 GHz, TF32 tensor peak of 156 TFLOP/s
/// (98 enabled SMs × 1024 FLOP/cycle — PyTorch 1.7, the paper's stack,
/// defaults to TF32 tensor cores on Ampere), fp32 CUDA-core peak of 19.5
/// TFLOP/s, 1555 GB/s of HBM2 split over 8 memory slices. The
/// efficiency/overhead fields calibrate the model to eager-mode PyTorch
/// execution: every operator is its own kernel with a launch gap, and
/// small kernels have a minimum wall-clock floor regardless of partition
/// size (the effect that makes lightweight models nearly
/// partition-size-insensitive, paper Fig. 3).
///
/// # Examples
///
/// ```
/// use mig_gpu::DeviceSpec;
///
/// let spec = DeviceSpec::a100();
/// assert_eq!(spec.gpcs, 7);
/// assert_eq!(spec.mem_slices, 8);
/// // Full-GPU TF32 tensor peak lands in the ~140 TFLOP/s range.
/// let peak = spec.tensor_peak_flops(spec.gpcs * spec.sms_per_gpc);
/// assert!((1.2e14..1.7e14).contains(&peak));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Graphics processing clusters per GPU (A100: 7).
    pub gpcs: usize,
    /// Streaming multiprocessors per GPC (A100 MIG slice: 14).
    pub sms_per_gpc: usize,
    /// SM clock in Hz.
    pub clock_hz: f64,
    /// Tensor-core FLOPs per SM per cycle (A100 TF32: 1024).
    pub tensor_flops_per_sm_cycle: f64,
    /// CUDA-core FLOPs per SM per cycle for elementwise/fp32 work.
    pub cuda_flops_per_sm_cycle: f64,
    /// Memory slices the HBM is divided into for MIG (A100: 8).
    pub mem_slices: usize,
    /// Aggregate DRAM bandwidth of the whole GPU, bytes/s (A100: 1555 GB/s).
    pub total_mem_bw: f64,
    /// Fraction of activation traffic served from L2 rather than DRAM.
    pub l2_hit_fraction: f64,
    /// Achievable fraction of tensor-core peak on real GEMM shapes.
    pub tensor_efficiency: f64,
    /// Achievable fraction of CUDA-core peak on elementwise kernels.
    pub cuda_efficiency: f64,
    /// Per-kernel launch + inter-kernel gap, seconds (eager-mode PyTorch).
    pub kernel_overhead_s: f64,
    /// Minimum wall-clock execution time of any kernel, seconds,
    /// independent of partition size (cuDNN/eager small-kernel floor).
    pub kernel_floor_s: f64,
    /// Per-inference framework/dispatch overhead, seconds.
    pub framework_overhead_s: f64,
    /// Rows of a tensor-core thread-block tile (GEMM M-tile).
    pub tensor_tile_rows: f64,
    /// Columns of a tensor-core thread-block tile (GEMM N-tile).
    pub tensor_tile_cols: f64,
    /// Elements covered by one CUDA-core thread block.
    pub cuda_tile_elems: f64,
    /// Concurrent thread blocks per SM for tensor-core kernels.
    pub tensor_ctas_per_sm: f64,
    /// Concurrent thread blocks per SM for CUDA-core kernels.
    pub cuda_ctas_per_sm: f64,
    /// Model the staircase effect of whole thread-block waves instead of
    /// the smooth load-balanced approximation (ablation switch).
    pub wave_quantization: bool,
}

impl DeviceSpec {
    /// The A100 SXM4-40GB calibration used throughout the reproduction.
    #[must_use]
    pub fn a100() -> Self {
        DeviceSpec {
            gpcs: 7,
            sms_per_gpc: 14,
            clock_hz: 1.41e9,
            tensor_flops_per_sm_cycle: 1024.0,
            cuda_flops_per_sm_cycle: 128.0,
            mem_slices: 8,
            total_mem_bw: 1.555e12,
            l2_hit_fraction: 0.85,
            tensor_efficiency: 0.35,
            cuda_efficiency: 0.5,
            kernel_overhead_s: 10e-6,
            kernel_floor_s: 50e-6,
            framework_overhead_s: 100e-6,
            tensor_tile_rows: 64.0,
            tensor_tile_cols: 64.0,
            cuda_tile_elems: 1024.0,
            tensor_ctas_per_sm: 2.0,
            cuda_ctas_per_sm: 4.0,
            wave_quantization: false,
        }
    }

    /// Total SMs on the full GPU.
    #[must_use]
    pub fn total_sms(&self) -> usize {
        self.gpcs * self.sms_per_gpc
    }

    /// DRAM bandwidth of one memory slice, bytes/s.
    #[must_use]
    pub fn bw_per_slice(&self) -> f64 {
        self.total_mem_bw / self.mem_slices as f64
    }

    /// Peak tensor-core FLOP/s for a partition with `sms` SMs.
    #[must_use]
    pub fn tensor_peak_flops(&self, sms: usize) -> f64 {
        sms as f64 * self.tensor_flops_per_sm_cycle * self.clock_hz
    }

    /// Peak CUDA-core FLOP/s for a partition with `sms` SMs.
    #[must_use]
    pub fn cuda_peak_flops(&self, sms: usize) -> f64 {
        sms as f64 * self.cuda_flops_per_sm_cycle * self.clock_hz
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_constants_are_published_values() {
        let s = DeviceSpec::a100();
        assert_eq!(s.total_sms(), 98);
        // 1555 GB/s over 8 slices ≈ 194 GB/s per slice.
        assert!((s.bw_per_slice() - 1.944e11).abs() / 1.944e11 < 0.01);
    }

    #[test]
    fn peaks_scale_linearly_with_sms() {
        let s = DeviceSpec::a100();
        let one = s.tensor_peak_flops(14);
        let seven = s.tensor_peak_flops(98);
        assert!((seven / one - 7.0).abs() < 1e-9);
        assert!(s.cuda_peak_flops(14) < one, "cuda pipe much slower");
    }

    #[test]
    fn default_is_a100() {
        assert_eq!(DeviceSpec::default(), DeviceSpec::a100());
    }
}
