package libsim

import (
	"fmt"
	"slices"
	"testing"

	"gosensei/internal/golden"
)

// goldenFrames are the PNGs this package wrote at the commit before the
// adaptors moved onto the shared image tail (PR 17's parent), four steps of
// the 12³ oscillator deck each. Isosurface frames depend on the rank count
// (the cell→point conversion stops at block boundaries), so every P has its
// own rows and nothing here asserts they agree.
var goldenFrames = map[string]string{
	"slice+iso/P1/visit_00001.png": "0ba985c447a5e09ff309133f32d92261cd65d7fffe429a816a31459432fac36f",
	"slice+iso/P1/visit_00002.png": "10f064ef926803ee5fbeffb98a64b8cef57e0c9613186ac983b7355864a18784",
	"slice+iso/P1/visit_00003.png": "3d1fa1c123346b8b1d51366ff8ee789fc015da50f4f96944bbd38c9c01904e43",
	"slice+iso/P1/visit_00004.png": "7c717e7cabbaaa0c933036c448d6dba0a9e115dc78281003fa95d9282bbc2595",
	"slice+iso/P2/visit_00001.png": "0ba985c447a5e09ff309133f32d92261cd65d7fffe429a816a31459432fac36f",
	"slice+iso/P2/visit_00002.png": "085d0c2f4d344f282905a2637c3f6712fb49e4991cc86756cc87a443605b3e92",
	"slice+iso/P2/visit_00003.png": "9e41bc867722b2774b756536eff939a24465e4d05d514eb18dffd6bc922cf017",
	"slice+iso/P2/visit_00004.png": "b64132889358a478ba530ec3f9bb1f62a8b62a9aa07a1bd7428b1c6341832563",
	"slice+iso/P3/visit_00001.png": "0ba985c447a5e09ff309133f32d92261cd65d7fffe429a816a31459432fac36f",
	"slice+iso/P3/visit_00002.png": "08a3b8c38c826b95575e5bcc8aab296c18beb000740b715b589b112e949fa1d7",
	"slice+iso/P3/visit_00003.png": "82b981c4d4d42ccd0a69d605095dfd7ee9d040aa08dbf0b8c45d4fe38c0b08af",
	"slice+iso/P3/visit_00004.png": "2a40386b0bd882695d4bd7e6eefbe8350bdd929c63c70cf1708d7cb95bd0409b",
	"slice+iso/P4/visit_00001.png": "0ba985c447a5e09ff309133f32d92261cd65d7fffe429a816a31459432fac36f",
	"slice+iso/P4/visit_00002.png": "3a98a3dae3236af9c994e53a34ffba6d437c9446906a43328b715005cdd19970",
	"slice+iso/P4/visit_00003.png": "60c741aff301bce4abfe32b12fe6e83a424b2a17acc68637100ada9ababa9ffc",
	"slice+iso/P4/visit_00004.png": "d5fe617e6fa144cac3010a35a6c3ece3f7bffac0205ebc1bf0b63197dc6c9192",
	"tml/visit_00001.png":          "513dc91d2bb66e2bb18bef904f4a4833c028bd89f20a053957656c45a88e19af",
	"tml/visit_00002.png":          "add5573fc8a510a63d899aa66bdc470daccb574592e8c2ada2378b61612425c9",
	"tml/visit_00003.png":          "ea7166373ee1d1287a6a583f43ac3191c23ab08c3c344b86fe11d48055e904b4",
	"tml/visit_00004.png":          "865dcff4323e062ac53942904c66223300eadee4570f6c4f299626b174343d08",
	"volume/visit_00001.png":       "9faf0e7b2cdc87c378652b08403fef0dcd09403efcd2ccc53ec9263bc697fb69",
	"volume/visit_00002.png":       "bf1d009e59d77603f66a4acdb0684b0c5669812a95e67d587b65944c139e94ed",
	"volume/visit_00003.png":       "27fc1e84999684db9051d252a5db1ba2fa5ef2c1cf5c9b4a3c7fa5ae39dfb24b",
	"volume/visit_00004.png":       "9365c7c8a24bed467d72412fc5e0b9b5513a233dc215a29677d8da62bff94b92",
}

func TestGoldenImages(t *testing.T) {
	golden.SkipUnlessAMD64(t)
	tml := func() (*Session, error) {
		s := TMLSession("data", [3]float64{0.2, 0.4, 0.6}, [3]float64{6, 6, 6})
		s.Image = ImageConfig{Width: 64, Height: 64}
		return s, nil
	}
	type deck struct {
		name    string
		ranks   int
		session func() (*Session, error)
		// flat lists the frames that are one flat colour: the deck is
		// identically zero at step 1, which leaves a volume nothing to draw.
		flat []string
	}
	decks := []deck{
		{"tml", 2, tml, nil},
		{"volume", 3, volumeSession, []string{"volume/visit_00001.png"}},
	}
	for p := 1; p <= 4; p++ {
		decks = append(decks, deck{fmt.Sprintf("slice+iso/P%d", p), p, sliceAndIsoSession, nil})
	}
	for _, d := range decks {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			runSession(t, d.ranks, 4, Options{OutputDir: dir}, d.session)
			prefix := d.name + "/"
			got, blank := golden.Dir(t, dir, prefix)
			golden.Compare(t, got, goldenFrames, prefix)
			if !slices.Equal(blank, d.flat) {
				t.Errorf("flat frames %v, want %v", blank, d.flat)
			}
		})
	}
}
