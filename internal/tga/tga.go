// Package tga reads and writes uncompressed 24-bit Targa images, the
// output format the paper's runs used ("240x320 resolution in targa
// format with 24-bit color"), plus binary PPM as a portable alternative.
package tga

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"nowrender/internal/fb"
)

// tgaHeader is the fixed 18-byte uncompressed-truecolor header.
func tgaHeader(w, h int) [18]byte {
	var hd [18]byte
	hd[2] = 2 // uncompressed truecolor
	hd[12] = byte(w)
	hd[13] = byte(w >> 8)
	hd[14] = byte(h)
	hd[15] = byte(h >> 8)
	hd[16] = 24   // bits per pixel
	hd[17] = 0x20 // top-left origin
	return hd
}

// Size returns the number of bytes Encode writes for img: the 18-byte
// header and three bytes per pixel.
func Size(img *fb.Framebuffer) int { return 18 + len(img.Pix) }

// encodeBufs recycles Encode's output buffers: a server encodes a frame
// per request, and a fresh buffer each time is garbage the size of the
// frame.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Encode writes img as an uncompressed 24-bit TGA in a single Write.
func Encode(w io.Writer, img *fb.Framebuffer) error {
	if img.W > 0xFFFF || img.H > 0xFFFF {
		return fmt.Errorf("tga: image %dx%d exceeds format limits", img.W, img.H)
	}
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	if cap(*bp) < Size(img) {
		*bp = make([]byte, Size(img))
	}
	out := (*bp)[:Size(img)]
	hd := tgaHeader(img.W, img.H)
	copy(out, hd[:])
	// TGA stores BGR; Pix is RGB with the same top-to-bottom row order.
	body := out[len(hd):]
	for i := 0; i < len(body); i += 3 {
		body[i], body[i+1], body[i+2] = img.Pix[i+2], img.Pix[i+1], img.Pix[i]
	}
	_, err := w.Write(out)
	return err
}

// Decode reads an uncompressed 24-bit TGA produced by Encode (top-left
// or bottom-left origin).
func Decode(r io.Reader) (*fb.Framebuffer, error) {
	br := bufio.NewReader(r)
	var hd [18]byte
	if _, err := io.ReadFull(br, hd[:]); err != nil {
		return nil, fmt.Errorf("tga: short header: %w", err)
	}
	if hd[2] != 2 {
		return nil, fmt.Errorf("tga: unsupported image type %d (want 2)", hd[2])
	}
	if hd[16] != 24 {
		return nil, fmt.Errorf("tga: unsupported depth %d (want 24)", hd[16])
	}
	idLen := int(hd[0])
	if idLen > 0 {
		if _, err := io.CopyN(io.Discard, br, int64(idLen)); err != nil {
			return nil, err
		}
	}
	w := int(hd[12]) | int(hd[13])<<8
	h := int(hd[14]) | int(hd[15])<<8
	topLeft := hd[17]&0x20 != 0
	img := fb.New(w, h)
	row := make([]byte, w*3)
	for yy := 0; yy < h; yy++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("tga: short pixel data: %w", err)
		}
		y := yy
		if !topLeft {
			y = h - 1 - yy
		}
		for x := 0; x < w; x++ {
			img.SetRGB(x, y, row[x*3+2], row[x*3+1], row[x*3+0])
		}
	}
	return img, nil
}

// WriteFile encodes img to path as TGA.
func WriteFile(path string, img *fb.Framebuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes a TGA file.
func ReadFile(path string) (*fb.Framebuffer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// EncodePPM writes img as binary PPM (P6), handy for quick viewing.
func EncodePPM(w io.Writer, img *fb.Framebuffer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", img.W, img.H); err != nil {
		return err
	}
	if _, err := bw.Write(img.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodePPM reads a binary PPM (P6) image.
func DecodePPM(r io.Reader) (*fb.Framebuffer, error) {
	br := bufio.NewReader(r)
	var magic string
	var w, h, maxv int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxv); err != nil {
		return nil, fmt.Errorf("ppm: bad header: %w", err)
	}
	if magic != "P6" || maxv != 255 {
		return nil, fmt.Errorf("ppm: unsupported format %s/%d", magic, maxv)
	}
	// Single whitespace byte after maxval.
	if _, err := br.ReadByte(); err != nil {
		return nil, err
	}
	img := fb.New(w, h)
	if _, err := io.ReadFull(br, img.Pix); err != nil {
		return nil, fmt.Errorf("ppm: short pixel data: %w", err)
	}
	return img, nil
}

// WriteFilePPM encodes img to path as PPM.
func WriteFilePPM(path string, img *fb.Framebuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodePPM(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
