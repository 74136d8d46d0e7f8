package render

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// pngFrame is a w×h frame in the shape of a pseudocoloured slice: smooth
// ramps, flat bands and edges, so every PNG filter and the deflate matcher
// have work. It is fully opaque, or has a translucent share of its pixels.
func pngFrame(w, h int, translucent bool, seed int) *Framebuffer {
	fb := NewFramebuffer(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := (y*w + x) * 4
			fb.Color[i+0] = uint8(x/3 + seed)
			fb.Color[i+1] = uint8(y / 4 * 8)
			fb.Color[i+2] = uint8((x/16 ^ y/16) * 40)
			fb.Color[i+3] = 255
			if translucent && (x/8+y/8+seed)%3 == 0 {
				fb.Color[i+3] = uint8(x / 8 * 16)
			}
		}
	}
	return fb
}

// referencePNG is the serial encode as a copying caller writes it: the
// colour plane copied into a fresh image.RGBA, and an encoder that keeps no
// state between calls.
func referencePNG(t *testing.T, fb *Framebuffer, level png.CompressionLevel) []byte {
	t.Helper()
	img := image.NewRGBA(image.Rect(0, 0, fb.W, fb.H))
	copy(img.Pix, fb.Color)
	var buf bytes.Buffer
	if err := (&png.Encoder{CompressionLevel: level}).Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var pngLevels = []png.CompressionLevel{png.DefaultCompression, png.NoCompression, png.BestSpeed, png.BestCompression}

// TestWritePNGMatchesCopiedImage: the serial path reads the framebuffer in
// place and reuses pooled encoder state, and must still write the bytes of
// an encode from a copy with a fresh encoder — at every size and level,
// opaque or not, in an order that hands each encode the state a frame of
// another size and level left in the pool — and leave the frame untouched.
func TestWritePNGMatchesCopiedImage(t *testing.T) {
	sizes := [][2]int{{7, 5}, {800, 450}, {1, 1}}
	for si, size := range sizes {
		for _, translucent := range []bool{false, true} {
			for _, level := range pngLevels {
				fb := pngFrame(size[0], size[1], translucent, si)
				before := append([]byte(nil), fb.Color...)
				want := referencePNG(t, fb, level)
				var got bytes.Buffer
				if _, err := WritePNG(&got, fb, PNGOptions{Compression: level}); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%dx%d translucent=%v level %d", size[0], size[1], translucent, level)
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s: %d bytes differ from the copied encode's %d", name, got.Len(), len(want))
				}
				if !bytes.Equal(fb.Color, before) {
					t.Errorf("%s: the encode changed the framebuffer", name)
				}
			}
		}
	}
}

// TestWritePNGConcurrentEncodes: two goroutines encoding different frames
// at once each get encoder state of their own from the pool; under -race a
// shared buffer is a report, and without it a wrong byte.
func TestWritePNGConcurrentEncodes(t *testing.T) {
	const rounds = 8
	frames := []*Framebuffer{pngFrame(96, 64, false, 1), pngFrame(64, 96, true, 2)}
	var wg sync.WaitGroup
	errs := make([]error, len(frames))
	for g, fb := range frames {
		want := referencePNG(t, fb, png.BestSpeed)
		wg.Add(1)
		go func(g int, fb *Framebuffer, want []byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var got bytes.Buffer
				if _, err := WritePNG(&got, fb, PNGOptions{Compression: png.BestSpeed}); err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					errs[g] = fmt.Errorf("goroutine %d round %d: bytes differ from the copied encode", g, r)
					return
				}
			}
		}(g, fb, want)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestWritePNGSteadyStateAllocatesNoImage: once one encode has filled the
// pool, ten more of an 800×450 frame allocate, all told, less than one
// colour plane — neither a copy of the image nor a deflate state per frame.
// Collection is held off across the window, so what is measured is what
// WritePNG asks for and not when a sync.Pool forgets; the race detector
// drops pooled entries on purpose, so the bound holds only without it.
func TestWritePNGSteadyStateAllocatesNoImage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	const w, h, rounds = 800, 450, 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fb := pngFrame(w, h, false, 3)
	if _, err := WritePNG(io.Discard, fb, PNGOptions{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		if _, err := WritePNG(io.Discard, fb, PNGOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew, plane := after.TotalAlloc-before.TotalAlloc, uint64(w*h*4); grew >= plane {
		t.Errorf("%d encodes allocated %d bytes; one colour plane is %d", rounds, grew, plane)
	} else {
		t.Logf("%d encodes allocated %d bytes (a colour plane is %d)", rounds, grew, plane)
	}
}
