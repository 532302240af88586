package tga

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nowrender/internal/fb"
	vm "nowrender/internal/vecmath"
)

func gradientImage(w, h int) *fb.Framebuffer {
	img := fb.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGB(x, y, byte(x*7%256), byte(y*13%256), byte((x+y)%256))
		}
	}
	return img
}

func TestTGARoundTrip(t *testing.T) {
	img := gradientImage(33, 17)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Error("TGA round trip not identical")
	}
}

// TestTGAEncodePinned pins Encode's exact bytes for a fixed image: the
// SHA-256 was taken from the per-pixel encoder Encode replaced, and
// Size must agree with what Encode writes.
func TestTGAEncodePinned(t *testing.T) {
	img := gradientImage(33, 17)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	const want = "e9e35569a8626acfe8fcb64e3c9cafc7377da20851a606c920939115cdb7598a"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("encoded SHA-256 %s, want %s", got, want)
	}
	if buf.Len() != Size(img) {
		t.Errorf("encoded %d bytes, Size says %d", buf.Len(), Size(img))
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes, n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.n += len(p)
	return len(p), nil
}

func TestTGAEncodeSingleWrite(t *testing.T) {
	img := gradientImage(120, 160)
	var cw countingWriter
	if err := Encode(&cw, img); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 || cw.n != Size(img) {
		t.Errorf("%d writes of %d bytes in total, want 1 of %d", cw.writes, cw.n, Size(img))
	}
}

func TestTGAHeaderContents(t *testing.T) {
	img := fb.New(300, 200)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 18+300*200*3 {
		t.Fatalf("encoded size = %d", len(b))
	}
	if b[2] != 2 || b[16] != 24 {
		t.Errorf("type=%d depth=%d", b[2], b[16])
	}
	w := int(b[12]) | int(b[13])<<8
	h := int(b[14]) | int(b[15])<<8
	if w != 300 || h != 200 {
		t.Errorf("header dims %dx%d", w, h)
	}
}

func TestTGADecodeBottomLeftOrigin(t *testing.T) {
	img := gradientImage(5, 4)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip the origin bit and reverse the rows: the decoded image must
	// be unchanged.
	raw[17] &^= 0x20
	rows := raw[18:]
	flipped := make([]byte, len(rows))
	rw := 5 * 3
	for y := 0; y < 4; y++ {
		copy(flipped[y*rw:(y+1)*rw], rows[(3-y)*rw:(4-y)*rw])
	}
	copy(rows, flipped)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Error("bottom-left origin decode wrong")
	}
}

func TestTGADecodeRejectsBadFormats(t *testing.T) {
	img := fb.New(2, 2)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[2] = 10 // RLE type
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "type") {
		t.Errorf("RLE accepted: %v", err)
	}
	bad = append([]byte(nil), buf.Bytes()...)
	bad[16] = 32
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("32-bit accepted: %v", err)
	}
	if _, err := Decode(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated header accepted")
	}
	trunc := buf.Bytes()[:20]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated pixels accepted")
	}
}

func TestTGAFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frame0001.tga")
	img := gradientImage(16, 16)
	if err := WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Error("file round trip differs")
	}
}

func TestPPMRoundTrip(t *testing.T) {
	img := gradientImage(9, 7)
	var buf bytes.Buffer
	if err := EncodePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n9 7\n255\n")) {
		t.Errorf("PPM header = %q", buf.Bytes()[:12])
	}
	got, err := DecodePPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Error("PPM round trip differs")
	}
}

func TestPPMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ppm")
	img := fb.New(3, 3)
	img.Set(1, 1, vm.V(1, 0, 0))
	if err := WriteFilePPM(path, img); err != nil {
		t.Fatal(err)
	}
	// Decode via ReadFile-equivalent manual open is covered in round
	// trip; just confirm bytes written.
	got, err := ReadFile(path)
	if err == nil {
		_ = got
		t.Error("TGA reader accepted a PPM file")
	}
}

func TestImageAdapterRoundTrip(t *testing.T) {
	img := gradientImage(13, 9)
	adapted := ToImage(img)
	if adapted.Bounds().Dx() != 13 || adapted.Bounds().Dy() != 9 {
		t.Fatalf("bounds = %v", adapted.Bounds())
	}
	back := FromImage(adapted)
	if !back.Equal(img) {
		t.Error("image.Image round trip changed pixels")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	img := gradientImage(21, 17)
	var buf bytes.Buffer
	if err := EncodePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Error("PNG round trip changed pixels")
	}
}

func TestPNGFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.png")
	img := gradientImage(8, 8)
	if err := WriteFilePNG(path, img); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := DecodePNG(f)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Error("PNG file round trip differs")
	}
}
