// Package machine describes the HPC platforms of the SC16 SENSEI paper as
// parameter sets for the performance model: core counts and speeds,
// per-node memory, interconnect latency/bandwidth, and the parallel
// filesystem's aggregate characteristics.
//
// Numbers come from the paper's own platform descriptions (Cori Phase I:
// 1,630 nodes x 2 x 16-core 2.3 GHz Haswell, 128 GB/node, Aries dragonfly,
// 30 PB Lustre at >700 GB/s) and public system documentation for Mira
// (BG/Q) and Titan. They parameterize extrapolation only; all small-scale
// results in this repository are genuinely executed.
package machine

// IOSystem models a parallel filesystem attached to a machine.
type IOSystem struct {
	// OSTBandwidth is the sustained bandwidth of one OST, bytes/s.
	OSTBandwidth float64
	// MetadataOpSeconds is the effective serialized cost of one file-create
	// at the metadata server.
	MetadataOpSeconds float64
	// CollectiveBandwidth is the sustained aggregate bandwidth achieved by a
	// well-formed collective (MPI-IO) write with recommended striping; this
	// is far below peak, as the paper's Table 1 observes.
	CollectiveBandwidth float64
	// FilePerProcessBandwidth is the sustained aggregate bandwidth of
	// file-per-process writes once metadata costs are paid.
	FilePerProcessBandwidth float64
	// ReadBandwidth is the sustained aggregate read bandwidth available to a
	// post hoc job (which shares the filesystem with other tenants).
	ReadBandwidth float64
	// ReadSigma is the log-normal sigma of read-time variability — the
	// "significant variability in read times on the NERSC Lustre system"
	// of Fig. 11.
	ReadSigma float64
	// BurstBufferBandwidth is the aggregate bandwidth of the machine's
	// burst buffer tier (0 = none). The paper's conclusion points at
	// "burst buffers on Cori, to achieve accelerated staging operations";
	// this field supports that future-work extension.
	BurstBufferBandwidth float64
}

// Machine is one platform parameter set.
type Machine struct {
	Name         string
	Nodes        int
	CoresPerNode int
	// RanksPerCore reflects hardware threading use (PHASTA ran 4 ranks/core
	// on Mira's BG/Q).
	RanksPerCore int
	MemPerNodeGB float64
	// CoreGFLOPS is the sustained per-core floating-point rate for
	// stencil-ish workloads (not peak).
	CoreGFLOPS float64
	// ScalarSlowdown is the extra factor serial, branchy code (zlib, PNG
	// filtering) pays on this machine's cores relative to the calibration
	// host — large on in-order cores like BG/Q's. Anchored to the paper's
	// measured PNG-dominated in situ steps (Table 2, Fig. 16).
	ScalarSlowdown float64
	// NetLatencySeconds is the one-way small-message latency.
	NetLatencySeconds float64
	// NetBandwidth is the per-link injection bandwidth, bytes/s.
	NetBandwidth float64
	IO           IOSystem
}

// Cori returns the Cori Phase I (NERSC Cray XC40, Haswell) model used for
// the miniapplication and Nyx studies.
func Cori() Machine {
	return Machine{
		Name:              "cori-p1",
		Nodes:             1630,
		CoresPerNode:      32,
		RanksPerCore:      1,
		MemPerNodeGB:      128,
		CoreGFLOPS:        4.0,
		ScalarSlowdown:    1.2,
		NetLatencySeconds: 1.3e-6,
		NetBandwidth:      8e9,
		IO: IOSystem{
			OSTBandwidth:            3e9,
			MetadataOpSeconds:       45e-6,
			CollectiveBandwidth:     5.4e9,
			FilePerProcessBandwidth: 17e9,
			ReadBandwidth:           4.5e9,
			ReadSigma:               0.35,
			BurstBufferBandwidth:    140e9, // Cori Phase I DataWarp
		},
	}
}

// Mira returns the Mira (ALCF BG/Q) model used for the PHASTA runs.
func Mira() Machine {
	return Machine{
		Name:              "mira",
		Nodes:             49152,
		CoresPerNode:      16,
		RanksPerCore:      4, // PHASTA's preferred configuration
		MemPerNodeGB:      16,
		CoreGFLOPS:        1.6,
		ScalarSlowdown:    10, // in-order 0.8 GHz/thread BG/Q cores on serial zlib
		NetLatencySeconds: 2.2e-6,
		NetBandwidth:      2e9,
		IO: IOSystem{
			OSTBandwidth:            0.6e9,
			MetadataOpSeconds:       80e-6,
			CollectiveBandwidth:     60e9,
			FilePerProcessBandwidth: 120e9,
			ReadBandwidth:           30e9,
			ReadSigma:               0.3,
		},
	}
}

// Titan returns the Titan (OLCF Cray XK7) model used for the AVF-LESLIE
// runs.
func Titan() Machine {
	return Machine{
		Name:              "titan",
		Nodes:             18688,
		CoresPerNode:      16,
		RanksPerCore:      1,
		MemPerNodeGB:      32,
		CoreGFLOPS:        2.2,
		ScalarSlowdown:    6, // shared-frontend Bulldozer integer cores on serial zlib
		NetLatencySeconds: 1.5e-6,
		NetBandwidth:      5e9,
		IO: IOSystem{
			OSTBandwidth:            1e9,
			MetadataOpSeconds:       60e-6,
			CollectiveBandwidth:     100e9,
			FilePerProcessBandwidth: 240e9,
			ReadBandwidth:           50e9,
			ReadSigma:               0.3,
		},
	}
}
