/**
 * @file
 * Machine-level micro-benchmarks: the strided remote transfer
 * sweeps behind Figures 2, 4, 5, 7, 8 (working-set surfaces) and
 * 12-14 (65 MB copy-transfer slices), plus machine-wide variants of
 * the local kernels (shared-resource-aware resets, loaded-machine
 * runs).
 *
 * Protocol, following the paper: the producer node writes the working
 * set ("to ensure race-free behavior, reading takes place after the
 * two processors reached a synchronization point"), timing is reset,
 * and the transfer of the whole working set — as a sequence of
 * single-pass strided transfers, one per stride offset — is measured
 * on the driving node.
 */

#ifndef GASNUB_KERNELS_REMOTE_KERNELS_HH
#define GASNUB_KERNELS_REMOTE_KERNELS_HH

#include "kernels/kernels.hh"
#include "machine/machine.hh"
#include "remote/remote_ops.hh"

namespace gasnub::kernels {

/** Parameters of a remote transfer benchmark. */
struct RemoteParams
{
    NodeId src = 1; ///< producer (paper: "P0 <- pull <- P1")
    NodeId dst = 0; ///< consumer / destination
    std::uint64_t wsBytes = 65536;
    std::uint64_t stride = 1;
    /**
     * Where the stride applies: true = at the source (strided remote
     * loads / gather), false = at the destination (strided remote
     * stores / scatter). The other side is contiguous.
     */
    bool strideOnSource = true;
    remote::TransferMethod method =
        remote::TransferMethod::Deposit;
    std::uint64_t capBytes = 0; ///< 0 = derive from cache sizes
    Addr srcBase = 0;
    Addr dstBase = 0;
};

/**
 * Run one remote transfer benchmark on @p m.
 * @return bandwidth of moving the working set across nodes.
 */
KernelResult remoteTransfer(machine::Machine &m,
                            const RemoteParams &p);

/**
 * Machine-level local kernels: like the single-hierarchy versions but
 * with machine-wide reset, so shared resources (the 8400 bus and
 * memory) are in a defined state.  Other nodes stay idle.
 */
KernelResult loadSumOn(machine::Machine &m, NodeId node,
                       const KernelParams &p);
KernelResult storeConstantOn(machine::Machine &m, NodeId node,
                             const KernelParams &p);
KernelResult copyOn(machine::Machine &m, NodeId node,
                    const KernelParams &p, CopyVariant variant,
                    Addr dst_base);

/** Disjoint per-node region base of the loaded-machine kernels. */
Addr nodeRegion(NodeId node);

/**
 * Loaded-machine Load-Sum (paper Section 5.1): every processor runs
 * the benchmark concurrently on its own region; reported bandwidth is
 * the slowest processor's.
 */
KernelResult loadSumLoaded(machine::Machine &m, const KernelParams &p);

} // namespace gasnub::kernels

#endif // GASNUB_KERNELS_REMOTE_KERNELS_HH
