package machine

import "testing"

func TestPresets(t *testing.T) {
	cori := Cori()
	if cores := cori.Nodes * cori.CoresPerNode; cores != 1630*32 {
		t.Fatalf("cori cores=%d", cores)
	}
	if cori.MemPerNodeGB != 128 {
		t.Fatalf("cori mem=%v", cori.MemPerNodeGB)
	}
	mira := Mira()
	if mira.RanksPerCore != 4 {
		t.Fatalf("mira ranks/core=%d (PHASTA runs 4)", mira.RanksPerCore)
	}
	// Mira supports the paper's 1M-rank run: 16384 nodes x 16 cores x 4.
	if mira.Nodes*mira.CoresPerNode*mira.RanksPerCore < 1048576 {
		t.Fatal("mira cannot host 1M ranks")
	}
	titan := Titan()
	if titan.CoresPerNode != 16 {
		t.Fatalf("titan cores/node=%d", titan.CoresPerNode)
	}
}

func TestSanityOfRates(t *testing.T) {
	for _, m := range []Machine{Cori(), Mira(), Titan()} {
		if m.CoreGFLOPS <= 0 || m.NetBandwidth <= 0 || m.NetLatencySeconds <= 0 {
			t.Errorf("%s: non-positive rates", m.Name)
		}
		if m.IO.CollectiveBandwidth <= 0 || m.IO.FilePerProcessBandwidth < m.IO.CollectiveBandwidth {
			t.Errorf("%s: file-per-process should outrun collective MPI-IO (Table 1)", m.Name)
		}
		if m.IO.ReadSigma < 0 || m.IO.MetadataOpSeconds <= 0 {
			t.Errorf("%s: bad IO params", m.Name)
		}
	}
}
