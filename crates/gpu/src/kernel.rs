//! Kernel descriptors and their cost evaluation.
//!
//! A [`KernelDesc`] is the unit of work the dispatcher launches on the
//! simulated GPU. Costing a kernel yields a [`KernelCost`]: its solo
//! execution time (excluding the fixed launch overhead, which the engine
//! charges separately) and its thread-block *demand*, which drives the
//! processor-sharing model when several streams run kernels concurrently.


use crate::device::DeviceSpec;
use crate::gemm::{time_gemm, GemmLibrary, GemmShape};
use crate::schedule::fold_hash;

/// Arithmetic efficiency of (possibly fused) element-wise kernels.
const ELEMENTWISE_EFF: f64 = 0.5;
/// Elements covered by one thread block of an element-wise kernel.
const ELEMENTS_PER_BLOCK: u64 = 4096;
/// Efficiency of hand-optimized compound kernels (the cuDNN-like baseline).
const COMPOUND_EFF: f64 = 0.62;

/// One launchable unit of GPU work.
///
/// Every variant is a few words of plain shape/size data, so descriptors are
/// `Copy`: schedules hand them to the engine by value and the hot launch path
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelDesc {
    /// A (possibly fused) matrix multiplication executed by a chosen library.
    Gemm {
        /// Operand shape (already reflects any fusion).
        shape: GemmShape,
        /// Library whose kernel implementation runs this GEMM.
        lib: GemmLibrary,
    },
    /// A (possibly fused) element-wise kernel over `elements` values.
    Elementwise {
        /// Number of output elements.
        elements: u64,
        /// Arithmetic per element (e.g. 1 for add, ~10 for sigmoid).
        flops_per_element: f64,
        /// Distinct input tensors read from HBM.
        inputs: u32,
        /// Distinct output tensors written to HBM (fusion keeps
        /// intermediates in registers, reducing this traffic).
        outputs: u32,
    },
    /// Row-wise softmax over a `rows x cols` matrix (3 passes).
    Softmax {
        /// Number of independent rows.
        rows: u64,
        /// Width of each row.
        cols: u64,
    },
    /// Embedding-table gather: `rows` lookups of `width`-wide vectors.
    EmbeddingLookup {
        /// Number of indices gathered.
        rows: u64,
        /// Embedding dimension.
        width: u64,
    },
    /// A hand-optimized compound kernel (the cuDNN-like accelerator):
    /// executes `flops` of arithmetic and `bytes` of traffic at high
    /// efficiency with full device occupancy, in a single launch.
    Compound {
        /// Total arithmetic in the compound region.
        flops: f64,
        /// Total memory traffic of the compound region.
        bytes: f64,
    },
    /// Device-to-device copy (e.g. gathering non-contiguous fusion operands).
    MemCopy {
        /// Bytes copied.
        bytes: f64,
    },
    /// A synchronous host round trip (models XLA's embedding pathology,
    /// where lookups bounce between CPU and GPU).
    HostRoundtrip {
        /// Payload bytes transferred across PCIe.
        bytes: f64,
    },
    /// A 2-D convolution executed as im2col + GEMM (the standard GPU
    /// lowering): pays the im2col gather traffic plus the implied GEMM.
    Conv {
        /// Batch size.
        batch: u64,
        /// Rows of the implied GEMM (`batch * h_out * w_out`).
        gemm_m: u64,
        /// Reduction dim of the implied GEMM (`c_in * kh * kw`).
        gemm_k: u64,
        /// Columns of the implied GEMM (`c_out`).
        gemm_n: u64,
    },
}

impl KernelDesc {
    /// A 64-bit digest of the variant tag and every field (f64 fields by
    /// their bits, so `0.0` and `-0.0` differ): what a launch contributes
    /// to its schedule's prefix hash for its kernel. An emitter that
    /// launches one kernel many times can digest it once and pass the
    /// digest to [`Schedule::launch_digested`](crate::Schedule::launch_digested).
    /// The destructures are exhaustive: a new variant or field does not
    /// compile until it is digested.
    pub fn digest(&self) -> u64 {
        let h = 0x4B45_524E;
        match *self {
            KernelDesc::Gemm { shape: GemmShape { m, k, n }, lib } => {
                let lib = match lib {
                    GemmLibrary::CublasLike => 0,
                    GemmLibrary::OaiWide => 1,
                    GemmLibrary::OaiTall => 2,
                };
                [0, m, k, n, lib].into_iter().fold(h, fold_hash)
            }
            KernelDesc::Elementwise { elements, flops_per_element, inputs, outputs } => {
                [1, elements, flops_per_element.to_bits(), u64::from(inputs), u64::from(outputs)]
                    .into_iter()
                    .fold(h, fold_hash)
            }
            KernelDesc::Softmax { rows, cols } => [2, rows, cols].into_iter().fold(h, fold_hash),
            KernelDesc::EmbeddingLookup { rows, width } => {
                [3, rows, width].into_iter().fold(h, fold_hash)
            }
            KernelDesc::Compound { flops, bytes } => {
                [4, flops.to_bits(), bytes.to_bits()].into_iter().fold(h, fold_hash)
            }
            KernelDesc::MemCopy { bytes } => [5, bytes.to_bits()].into_iter().fold(h, fold_hash),
            KernelDesc::HostRoundtrip { bytes } => {
                [6, bytes.to_bits()].into_iter().fold(h, fold_hash)
            }
            KernelDesc::Conv { batch, gemm_m, gemm_k, gemm_n } => {
                [7, batch, gemm_m, gemm_k, gemm_n].into_iter().fold(h, fold_hash)
            }
        }
    }
}

/// Evaluated cost of a kernel on a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Solo execution time in ns, excluding launch overhead.
    pub exec_ns: f64,
    /// Thread blocks in the kernel's grid (uncapped); `0` for work that
    /// does not occupy SMs (host round trips).
    pub demand_blocks: u32,
}

/// PCIe bandwidth for host round trips, bytes/ns (~12 GB/s).
const PCIE_BYTES_PER_NS: f64 = 12.0;

impl KernelDesc {
    /// Evaluates this kernel's solo cost on `dev`.
    ///
    /// # Examples
    ///
    /// ```
    /// use astra_gpu::{DeviceSpec, GemmLibrary, GemmShape, KernelDesc};
    ///
    /// let dev = DeviceSpec::p100();
    /// let k = KernelDesc::Gemm {
    ///     shape: GemmShape::new(64, 256, 256),
    ///     lib: GemmLibrary::CublasLike,
    /// };
    /// assert!(k.cost(&dev).exec_ns > 0.0);
    /// ```
    pub fn cost(&self, dev: &DeviceSpec) -> KernelCost {
        match *self {
            KernelDesc::Gemm { shape, lib } => {
                let t = time_gemm(shape, lib, dev);
                KernelCost { exec_ns: t.time_ns, demand_blocks: t.demand_blocks }
            }
            KernelDesc::Elementwise { elements, flops_per_element, inputs, outputs } => {
                let bytes = 4.0 * elements as f64 * (inputs + outputs) as f64;
                let flops = elements as f64 * flops_per_element;
                let mem_ns = bytes / dev.bytes_per_ns();
                let compute_ns = flops / (dev.peak_flops_per_ns() * ELEMENTWISE_EFF);
                let demand = (elements / ELEMENTS_PER_BLOCK).max(1);
                KernelCost { exec_ns: mem_ns.max(compute_ns), demand_blocks: demand as u32 }
            }
            KernelDesc::Softmax { rows, cols } => {
                let elements = rows * cols;
                // Three passes: max, exp-sum, normalize.
                let bytes = 3.0 * 2.0 * 4.0 * elements as f64;
                let flops = 8.0 * elements as f64;
                let mem_ns = bytes / dev.bytes_per_ns();
                let compute_ns = flops / (dev.peak_flops_per_ns() * ELEMENTWISE_EFF);
                let demand = rows.max(1);
                KernelCost { exec_ns: mem_ns.max(compute_ns), demand_blocks: demand as u32 }
            }
            KernelDesc::EmbeddingLookup { rows, width } => {
                // Gather: random reads of `width`-wide rows + sequential write.
                let bytes = 2.0 * 4.0 * (rows * width) as f64;
                // Random access achieves a fraction of peak bandwidth.
                let mem_ns = bytes / (dev.bytes_per_ns() * 0.35);
                let demand = rows.max(1);
                KernelCost { exec_ns: mem_ns, demand_blocks: demand as u32 }
            }
            KernelDesc::Compound { flops, bytes } => {
                let compute_ns = flops / (dev.peak_flops_per_ns() * COMPOUND_EFF);
                let mem_ns = bytes / dev.bytes_per_ns();
                KernelCost {
                    exec_ns: compute_ns.max(mem_ns),
                    demand_blocks: dev.total_slots(),
                }
            }
            KernelDesc::MemCopy { bytes } => KernelCost {
                exec_ns: 2.0 * bytes / dev.bytes_per_ns(),
                demand_blocks: (bytes as u64 / (4 * ELEMENTS_PER_BLOCK)).max(1) as u32,
            },
            KernelDesc::HostRoundtrip { bytes } => KernelCost {
                exec_ns: dev.host_roundtrip_ns + bytes / PCIE_BYTES_PER_NS,
                demand_blocks: 0,
            },
            KernelDesc::Conv { gemm_m, gemm_k, gemm_n, .. } => {
                let g = time_gemm(
                    GemmShape::new(gemm_m.max(1), gemm_k.max(1), gemm_n.max(1)),
                    GemmLibrary::CublasLike,
                    dev,
                );
                // im2col materializes the patch matrix: one read + write.
                let im2col_bytes = 2.0 * 4.0 * (gemm_m * gemm_k) as f64;
                KernelCost {
                    exec_ns: g.time_ns + im2col_bytes / dev.bytes_per_ns(),
                    demand_blocks: g.demand_blocks,
                }
            }
        }
    }

    /// Nominal FLOP count of this kernel (used for super-epoch budgeting and
    /// the "balance flops across streams" static policy, paper §4.8).
    pub fn flops(&self) -> f64 {
        match *self {
            KernelDesc::Gemm { shape, .. } => shape.flops(),
            KernelDesc::Elementwise { elements, flops_per_element, .. } => {
                elements as f64 * flops_per_element
            }
            KernelDesc::Softmax { rows, cols } => 8.0 * (rows * cols) as f64,
            KernelDesc::EmbeddingLookup { rows, width } => (rows * width) as f64,
            KernelDesc::Compound { flops, .. } => flops,
            KernelDesc::MemCopy { .. } | KernelDesc::HostRoundtrip { .. } => 0.0,
            KernelDesc::Conv { gemm_m, gemm_k, gemm_n, .. } => {
                2.0 * (gemm_m * gemm_k * gemm_n) as f64
            }
        }
    }

    /// Short human-readable label for traces.
    pub fn label(&self) -> String {
        match *self {
            KernelDesc::Gemm { shape, lib } => format!("gemm[{shape}]@{lib}"),
            KernelDesc::Elementwise { elements, .. } => format!("ew[{elements}]"),
            KernelDesc::Softmax { rows, cols } => format!("softmax[{rows}x{cols}]"),
            KernelDesc::EmbeddingLookup { rows, width } => format!("embed[{rows}x{width}]"),
            KernelDesc::Compound { flops, .. } => format!("compound[{:.1}MF]", flops / 1e6),
            KernelDesc::MemCopy { bytes } => format!("copy[{:.1}KB]", bytes / 1e3),
            KernelDesc::HostRoundtrip { .. } => "host-roundtrip".to_owned(),
            KernelDesc::Conv { gemm_m, gemm_k, gemm_n, .. } => {
                format!("conv[{gemm_m}x{gemm_k}x{gemm_n}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_is_bandwidth_bound() {
        let dev = DeviceSpec::p100();
        let k = KernelDesc::Elementwise {
            elements: 1 << 20,
            flops_per_element: 1.0,
            inputs: 2,
            outputs: 1,
        };
        let c = k.cost(&dev);
        let expected = 4.0 * (1u64 << 20) as f64 * 3.0 / dev.bytes_per_ns();
        assert!((c.exec_ns - expected).abs() < 1.0);
    }

    #[test]
    fn fused_elementwise_cheaper_than_chain() {
        // A fused chain of 3 unary ops reads input once and writes once,
        // vs 3 kernels each doing a read+write.
        let dev = DeviceSpec::p100();
        let fused = KernelDesc::Elementwise {
            elements: 1 << 20,
            flops_per_element: 12.0,
            inputs: 1,
            outputs: 1,
        };
        let single = KernelDesc::Elementwise {
            elements: 1 << 20,
            flops_per_element: 4.0,
            inputs: 1,
            outputs: 1,
        };
        let chain = 3.0 * (single.cost(&dev).exec_ns + dev.launch_overhead_ns);
        let f = fused.cost(&dev).exec_ns + dev.launch_overhead_ns;
        assert!(f < chain);
    }

    #[test]
    fn compound_kernel_is_efficient() {
        let dev = DeviceSpec::p100();
        let flops = 1e9;
        let c = KernelDesc::Compound { flops, bytes: 1e6 }.cost(&dev);
        // Must run well above the plain-library efficiencies.
        assert!(c.exec_ns <= flops / (dev.peak_flops_per_ns() * 0.55));
        assert_eq!(c.demand_blocks, dev.total_slots());
    }

    #[test]
    fn host_roundtrip_is_expensive() {
        let dev = DeviceSpec::p100();
        let c = KernelDesc::HostRoundtrip { bytes: 4096.0 }.cost(&dev);
        assert!(c.exec_ns >= dev.host_roundtrip_ns);
        assert_eq!(c.demand_blocks, 0);
    }

    #[test]
    fn labels_nonempty() {
        let dev = DeviceSpec::p100();
        let kernels = [
            KernelDesc::Gemm { shape: GemmShape::new(1, 1, 1), lib: GemmLibrary::CublasLike },
            KernelDesc::Elementwise { elements: 8, flops_per_element: 1.0, inputs: 1, outputs: 1 },
            KernelDesc::Softmax { rows: 2, cols: 2 },
            KernelDesc::EmbeddingLookup { rows: 4, width: 8 },
            KernelDesc::Compound { flops: 1.0, bytes: 1.0 },
            KernelDesc::MemCopy { bytes: 16.0 },
            KernelDesc::HostRoundtrip { bytes: 0.0 },
        ];
        for k in kernels {
            assert!(!k.label().is_empty());
            assert!(k.cost(&dev).exec_ns >= 0.0);
            assert!(k.flops() >= 0.0);
        }
    }
}
