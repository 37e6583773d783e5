// Package dash models DASH video content the way the paper's testbed
// serves it (§4.1): H.264 videos encoded at resolutions from 240p to
// 1440p, frame rates of 24–60 FPS, bitrates per YouTube's recommended
// upload settings, split into ~4-second segments and described by a
// manifest. A net/http handler serves manifests and synthetic segments
// for the real-network examples.
package dash

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"coalqoe/internal/units"
)

// Resolution is a standard video resolution.
type Resolution int

// Supported resolutions (the paper's experimental range).
const (
	R240p Resolution = iota
	R360p
	R480p
	R720p
	R1080p
	R1440p
)

// Resolutions lists all supported resolutions in ascending order.
var Resolutions = []Resolution{R240p, R360p, R480p, R720p, R1080p, R1440p}

// Pixels returns the frame size in pixels (16:9 frames).
func (r Resolution) Pixels() int {
	w, h := r.Dimensions()
	return w * h
}

// Dimensions returns width and height.
func (r Resolution) Dimensions() (w, h int) {
	switch r {
	case R240p:
		return 426, 240
	case R360p:
		return 640, 360
	case R480p:
		return 854, 480
	case R720p:
		return 1280, 720
	case R1080p:
		return 1920, 1080
	case R1440p:
		return 2560, 1440
	default:
		return 0, 0
	}
}

// resolutionNames holds each supported resolution's name, indexed by
// Resolution, so String and ParseResolution format nothing.
var resolutionNames = func() []string {
	names := make([]string, len(Resolutions))
	for _, r := range Resolutions {
		_, h := r.Dimensions()
		names[r] = strconv.Itoa(h) + "p"
	}
	return names
}()

// String renders like "1080p"; an unknown resolution renders "0p".
func (r Resolution) String() string {
	if r >= 0 && int(r) < len(resolutionNames) {
		return resolutionNames[r]
	}
	return "0p"
}

// ParseResolution converts "720p" style strings.
func ParseResolution(s string) (Resolution, error) {
	for r, name := range resolutionNames {
		if name == s {
			return Resolution(r), nil
		}
	}
	return 0, fmt.Errorf("dash: unknown resolution %q", s)
}

// Rung is one entry of the bitrate ladder: a (resolution, frame rate)
// pair with its encoding bitrate.
type Rung struct {
	Resolution Resolution
	FPS        int
	Bitrate    units.BitsPerSecond
}

// String renders like "1080p60@12.00Mbps".
func (r Rung) String() string {
	return fmt.Sprintf("%s%d@%v", r.Resolution, r.FPS, r.Bitrate)
}

// youtubeBitrate30 gives YouTube's recommended upload bitrate for
// 30 FPS SDR content [20].
var youtubeBitrate30 = map[Resolution]units.BitsPerSecond{
	R240p:  0.7 * units.Mbps,
	R360p:  1.0 * units.Mbps,
	R480p:  2.5 * units.Mbps,
	R720p:  5.0 * units.Mbps,
	R1080p: 8.0 * units.Mbps,
	R1440p: 16.0 * units.Mbps,
}

// youtubeBitrate60 gives the high-frame-rate recommendations.
var youtubeBitrate60 = map[Resolution]units.BitsPerSecond{
	R240p:  1.0 * units.Mbps,
	R360p:  1.5 * units.Mbps,
	R480p:  4.0 * units.Mbps,
	R720p:  7.5 * units.Mbps,
	R1080p: 12.0 * units.Mbps,
	R1440p: 24.0 * units.Mbps,
}

// BitrateFor returns the ladder bitrate for a resolution/fps pair,
// interpolating for the 24 and 48 FPS encodings the paper's §6 uses
// (24 ≈ 0.92 × the 30 FPS rate, 48 ≈ 0.92 × the 60 FPS rate).
func BitrateFor(r Resolution, fps int) units.BitsPerSecond {
	switch {
	case fps <= 24:
		return units.BitsPerSecond(0.92 * float64(youtubeBitrate30[r]))
	case fps <= 30:
		return youtubeBitrate30[r]
	case fps <= 48:
		return units.BitsPerSecond(0.92 * float64(youtubeBitrate60[r]))
	default:
		return youtubeBitrate60[r]
	}
}

// StandardFPS lists the frame rates the paper evaluates.
var StandardFPS = []int{24, 30, 48, 60}

// Ladder builds the full rung set for the given fps options.
func Ladder(fpsOptions ...int) []Rung {
	if len(fpsOptions) == 0 {
		fpsOptions = []int{30, 60}
	}
	var out []Rung
	for _, r := range Resolutions {
		for _, f := range fpsOptions {
			out = append(out, Rung{Resolution: r, FPS: f, Bitrate: BitrateFor(r, f)})
		}
	}
	return out
}

// FindRung returns the ladder rung matching resolution and fps.
func FindRung(ladder []Rung, r Resolution, fps int) (Rung, bool) {
	for _, rung := range ladder {
		if rung.Resolution == r && rung.FPS == fps {
			return rung, true
		}
	}
	return Rung{}, false
}

// Genre captures content complexity; it scales both per-segment size
// variability and decode cost (motion/detail).
type Genre int

// The paper's five test genres (§4.3).
const (
	Travel Genre = iota
	Sports
	Gaming
	News
	Nature
)

// Genres lists all genres.
var Genres = []Genre{Travel, Sports, Gaming, News, Nature}

// String names the genre.
func (g Genre) String() string {
	switch g {
	case Travel:
		return "travel"
	case Sports:
		return "sports"
	case Gaming:
		return "gaming"
	case News:
		return "news"
	case Nature:
		return "nature"
	default:
		return fmt.Sprintf("Genre(%d)", int(g))
	}
}

// Complexity returns the decode-cost multiplier for the genre.
func (g Genre) Complexity() float64 {
	switch g {
	case Gaming:
		return 1.15
	case Sports:
		return 1.10
	case Travel:
		return 1.0
	case Nature:
		return 0.95
	case News:
		return 0.85
	default:
		return 1.0
	}
}

// variability returns the per-segment VBR size spread for the genre.
func (g Genre) variability() float64 {
	switch g {
	case Gaming, Sports:
		return 0.35
	case Travel:
		return 0.25
	case Nature:
		return 0.20
	case News:
		return 0.15
	default:
		return 0.25
	}
}

// Video describes one piece of content.
type Video struct {
	Title           string
	Genre           Genre
	Duration        time.Duration
	SegmentDuration time.Duration
}

// TestVideos are stand-ins for the five YouTube videos of §4.3;
// the first (travel) is the paper's primary single-video subject
// ("Dubai Flow Motion in 4K").
var TestVideos = []Video{
	{Title: "Dubai Flow Motion", Genre: Travel, Duration: 3 * time.Minute, SegmentDuration: 4 * time.Second},
	{Title: "ATP Cup Highlights", Genre: Sports, Duration: 3 * time.Minute, SegmentDuration: 4 * time.Second},
	{Title: "Dota 2 Grand Final", Genre: Gaming, Duration: 3 * time.Minute, SegmentDuration: 4 * time.Second},
	{Title: "News Interview", Genre: News, Duration: 3 * time.Minute, SegmentDuration: 4 * time.Second},
	{Title: "Bali in 8K", Genre: Nature, Duration: 3 * time.Minute, SegmentDuration: 4 * time.Second},
}

// Segments returns the number of segments in the video.
func (v Video) Segments() int {
	return int(math.Ceil(float64(v.Duration) / float64(v.SegmentDuration)))
}

// SegmentBytes returns the deterministic VBR size of segment i at the
// given rung: the nominal CBR size modulated by a genre-dependent,
// per-segment pseudo-random factor (stable across runs and servers).
func (v Video) SegmentBytes(rung Rung, i int) units.Bytes {
	nominal := rung.Bitrate.BytesPerSecond() * v.SegmentDuration.Seconds()
	// xorshift-style hash of (title, segment) for a stable factor.
	h := uint64(2166136261)
	for _, c := range v.Title {
		h = (h ^ uint64(c)) * 16777619
	}
	h ^= uint64(i+1) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	u := float64(h%10000)/10000 - 0.5 // [-0.5, 0.5)
	factor := 1 + 2*u*v.Genre.variability()
	return units.Bytes(nominal * factor)
}

// TotalBytes returns the size of the whole video at the given rung.
func (v Video) TotalBytes(rung Rung) units.Bytes {
	var sum units.Bytes
	for i := 0; i < v.Segments(); i++ {
		sum += v.SegmentBytes(rung, i)
	}
	return sum
}

// Manifest is the MPD equivalent: one video with its available rungs.
type Manifest struct {
	Video Video
	Rungs []Rung
}

// NewManifest builds a manifest over the default 30/60 FPS ladder,
// or the provided fps options.
func NewManifest(v Video, fpsOptions ...int) *Manifest {
	return &Manifest{Video: v, Rungs: Ladder(fpsOptions...)}
}

// Rung finds the rung for (resolution, fps).
func (m *Manifest) Rung(r Resolution, fps int) (Rung, bool) {
	return FindRung(m.Rungs, r, fps)
}

// Lowest returns the lowest-bitrate rung.
func (m *Manifest) Lowest() Rung {
	best := m.Rungs[0]
	for _, r := range m.Rungs[1:] {
		if r.Bitrate < best.Bitrate {
			best = r
		}
	}
	return best
}
