package extracts

import (
	"fmt"
	"strings"
	"testing"

	"gosensei/internal/golden"
)

// goldenStores are the Cinema stores this package wrote at the commit before
// the adaptors moved onto the shared image tail (PR 17's parent): baseSpec
// over four steps of the 12³ oscillator deck, every image and index.json.
// Isosurface frames depend on the rank count (the cell→point conversion stops
// at block boundaries), so every P has its own rows.
var goldenStores = map[string]string{
	"P1/index.json":                       "422d25bbe06a61c83d54699eb8dab3261043a87e58385baf1758515ac4cbbb68",
	"P1/s00001_i0.400_p0000.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P1/s00001_i0.400_p0090.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P1/s00001_i0.700_p0000.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P1/s00001_i0.700_p0090.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P1/s00002_i0.400_p0000.0_t030.0.png": "7447a7cc4b88a12cd58d31ddbc6b05cddf7451db54b3a1f3a1072414c1527ca1",
	"P1/s00002_i0.400_p0090.0_t030.0.png": "d4a197e52295ddcbf57d6d5d010bbdf8b496b4a2372c2dac31e6033274dcf867",
	"P1/s00002_i0.700_p0000.0_t030.0.png": "9560faab9682e0f67f079fc2a0d3ae477ba0577d26fefff68b61421fd5bfca10",
	"P1/s00002_i0.700_p0090.0_t030.0.png": "d6d48d69b552a335433a621d3bb5705a868b8807f7c0c7cc728982806ca20f4b",
	"P1/s00003_i0.400_p0000.0_t030.0.png": "aefdbcc65649c413878d45159ce76e11f00950acac88d12b58aec8726ec2345f",
	"P1/s00003_i0.400_p0090.0_t030.0.png": "b1eb11b624aaece3f4be754ae8b423cc712805e6d858f8ba75181e0b32694bcb",
	"P1/s00003_i0.700_p0000.0_t030.0.png": "ed056bc3a9583212d59a316f696876b19f85d193513e1eb8b342c166b415359a",
	"P1/s00003_i0.700_p0090.0_t030.0.png": "56a72d3c6c84104bb5e30bf335a7278fe2d5cc2ad4f531b5ed6a37594391e3f8",
	"P1/s00004_i0.400_p0000.0_t030.0.png": "a215cc3da676e15e3187df96cfa1e698c4eba2b61cd6eff762b2fd32ce4a48ef",
	"P1/s00004_i0.400_p0090.0_t030.0.png": "9cd118b0e2e03aa4f7a6755ad5e2b15698724d47b0fb7e9198171b717538adb3",
	"P1/s00004_i0.700_p0000.0_t030.0.png": "07178daa908addba54daf115b0f87988a167652ed4bf1b041b9d67ab6855958b",
	"P1/s00004_i0.700_p0090.0_t030.0.png": "185871dcaa8b7cc00dbfde5ee99011c1ffefac4cc08251a2bbe9d9b8b2c85b0d",
	"P2/index.json":                       "422d25bbe06a61c83d54699eb8dab3261043a87e58385baf1758515ac4cbbb68",
	"P2/s00001_i0.400_p0000.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P2/s00001_i0.400_p0090.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P2/s00001_i0.700_p0000.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P2/s00001_i0.700_p0090.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P2/s00002_i0.400_p0000.0_t030.0.png": "30cf0ae11e9d735e38003bd528099720d3b445611985d9f1c83e1dbfe06c009a",
	"P2/s00002_i0.400_p0090.0_t030.0.png": "d71650825baa8a27c7e8d36c63b9eb181c81671a52e87697ccbb264c51f521ef",
	"P2/s00002_i0.700_p0000.0_t030.0.png": "9560faab9682e0f67f079fc2a0d3ae477ba0577d26fefff68b61421fd5bfca10",
	"P2/s00002_i0.700_p0090.0_t030.0.png": "d6d48d69b552a335433a621d3bb5705a868b8807f7c0c7cc728982806ca20f4b",
	"P2/s00003_i0.400_p0000.0_t030.0.png": "050534a31d80a039205905d2ce981f9ced4634de858d3ab268d65d49aa7b219e",
	"P2/s00003_i0.400_p0090.0_t030.0.png": "3518fa8b242ae489c23a556d10102ff70998e2e49d7811dddf2f32e2ce9b2ad1",
	"P2/s00003_i0.700_p0000.0_t030.0.png": "ecb101b85a21ed528ac4dce63537c54a151e46361c142f86a361e43f89b055ce",
	"P2/s00003_i0.700_p0090.0_t030.0.png": "006ed65ee23473093a1cd5a1379fef6a110b3a3a81c0bb521b4535b033d8c6a2",
	"P2/s00004_i0.400_p0000.0_t030.0.png": "4c97d968048b1db3c81645915af64cbfa7811c8b181d7d1caed0c661a46e331c",
	"P2/s00004_i0.400_p0090.0_t030.0.png": "6d78b4fa180ee4d0b90113937ea0496a9c8a53ade53e5523e229d5c49ec58fac",
	"P2/s00004_i0.700_p0000.0_t030.0.png": "c1224ff5c6a6dc707cb867148304edbe13ecf374c958ccca02d3cc1ee169446f",
	"P2/s00004_i0.700_p0090.0_t030.0.png": "ef59c05aaa149f259cc0d3e1e8d5823055ba35bf9c6eb99771f316abb9cfc251",
	"P3/index.json":                       "422d25bbe06a61c83d54699eb8dab3261043a87e58385baf1758515ac4cbbb68",
	"P3/s00001_i0.400_p0000.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P3/s00001_i0.400_p0090.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P3/s00001_i0.700_p0000.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P3/s00001_i0.700_p0090.0_t030.0.png": "835b805fd2a07e7879c7659e5688964ef2304cc3ad9ce2daaddd0fe3f0963842",
	"P3/s00002_i0.400_p0000.0_t030.0.png": "da83d7ce96a8625587b2e3120722e83b0bcef5bf696c0bd6bbdb87179edd5c0a",
	"P3/s00002_i0.400_p0090.0_t030.0.png": "c4032f006295c7ab6a522d0101e8561e757b96c86f3f7f20a52f124249e942d9",
	"P3/s00002_i0.700_p0000.0_t030.0.png": "7a00fb7608ab799717c61a8ff7f003c4a85729a9f07fcd5246fb88a5132c0b3d",
	"P3/s00002_i0.700_p0090.0_t030.0.png": "009663121d74fd687acaae6f711c4b894c317bb8d8c7f8037cc767dd01ac8b12",
	"P3/s00003_i0.400_p0000.0_t030.0.png": "2184a7657a1684f13118e8a00d7105a728d9e3f31d126ebd2cf96032108dd63f",
	"P3/s00003_i0.400_p0090.0_t030.0.png": "12afda72ab86cba5c518a09b1a31855075f83c43a375140623b9a64014d753a8",
	"P3/s00003_i0.700_p0000.0_t030.0.png": "8a8b656af8235fbbc20d294f1b05391cddec020dfb846ee10fa5ac85e3e4b4b5",
	"P3/s00003_i0.700_p0090.0_t030.0.png": "936b3e49b19a0e1e75506247438363779a521aabb292a0db100bda37d0499a6a",
	"P3/s00004_i0.400_p0000.0_t030.0.png": "44fd488ee70d9d16fd3aa746a012b6a4af2679cf8f76f8a74d559dd9aa3fa477",
	"P3/s00004_i0.400_p0090.0_t030.0.png": "c93733d6c38055a6fcf2b0ddf9739e5cc9e596c937dacc6b58f54d8f224ea1de",
	"P3/s00004_i0.700_p0000.0_t030.0.png": "e39383b32c379694d592ea744bb0db7201fb5655b5d2d264a5798e6c899997ee",
	"P3/s00004_i0.700_p0090.0_t030.0.png": "85e6d4c051da95c8f2eeb3ceb4cd43e3964d9fac6ebb48a7db6bd67054ae9f6e",
}

func TestGoldenStores(t *testing.T) {
	golden.SkipUnlessAMD64(t)
	for p := 1; p <= 3; p++ {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			dir := t.TempDir()
			runCinema(t, p, 4, baseSpec(dir))
			prefix := fmt.Sprintf("P%d/", p)
			// 4 steps x 2 isos x 2 phis x 1 theta, and the index.
			got, blank := golden.Dir(t, dir, prefix)
			golden.Compare(t, got, goldenStores, prefix)
			// The deck is identically zero at step 1, so its four views are an
			// empty surface; from step 2 on every view shows one.
			if len(blank) != 4 {
				t.Errorf("flat frames %v, want the four views of step 1", blank)
			}
			for _, name := range blank {
				if !strings.HasPrefix(name, prefix+"s00001_") {
					t.Errorf("%s is one flat colour", name)
				}
			}
			seen := map[string]string{}
			for name, sum := range got {
				if strings.HasPrefix(name, prefix+"s00001_") {
					continue
				}
				if other, dup := seen[sum]; dup {
					t.Errorf("%s and %s are the same bytes", name, other)
				}
				seen[sum] = name
			}
		})
	}
}
