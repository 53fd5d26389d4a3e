package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/dsp"
	"trainbox/internal/imgproc"
	"trainbox/internal/storage"
)

// kernelTimes collects per-call kernel durations (ns) by metric name.
type kernelTimes map[string][]float64

func (k kernelTimes) add(name string, from, to time.Time) {
	k[name] = append(k[name], float64(to.Sub(from)))
}

// replayImage walks keys through the public image kernels in the order
// dataprep.PrepareImageScratch composes them, timing each kernel, and
// checks the result against PrepareImageScratch bit for bit. It is the
// oracle that keeps the per-kernel numbers on the code the hot path
// runs: if the composition ever drifts from the preparer, it fails.
func replayImage(store *storage.Store, keys []string, cfg dataprep.ImageConfig, datasetSeed int64, epoch int, kt kernelTimes) error {
	var decoded, cropped, mirrored imgproc.Image
	s := dataprep.NewScratch()
	for _, key := range keys {
		obj, err := store.Get(key)
		if err != nil {
			return err
		}
		seed := dataprep.SampleSeed(datasetSeed, key, epoch)

		t0 := time.Now()
		if err := imgproc.DecodeJPEGInto(&decoded, obj.Data); err != nil {
			return err
		}
		t1 := time.Now()
		kt.add("imgproc.decode_us", t0, t1)
		rng := rand.New(rand.NewSource(seed))
		if cfg.Augment {
			err = imgproc.RandomCropInto(&cropped, &decoded, cfg.CropW, cfg.CropH, rng)
		} else {
			err = imgproc.CenterCropInto(&cropped, &decoded, cfg.CropW, cfg.CropH)
		}
		if err != nil {
			return err
		}
		t2 := time.Now()
		kt.add("imgproc.crop_us", t1, t2)
		cur := &cropped
		if cfg.Augment && rng.Float64() < cfg.MirrorProb {
			t := time.Now()
			imgproc.MirrorInto(&mirrored, cur)
			kt.add("imgproc.mirror_us", t, time.Now())
			cur = &mirrored
		}
		if cfg.Augment && cfg.NoiseStd > 0 {
			t := time.Now()
			imgproc.GaussianNoiseInto(cur, cur, cfg.NoiseStd, rng)
			kt.add("imgproc.noise_us", t, time.Now())
		}
		got := &imgproc.Tensor{Data: make([]float32, 3*cur.W*cur.H)}
		t3 := time.Now()
		if err := imgproc.ToTensorInto(got, cur, cfg.Mean, cfg.Std); err != nil {
			return err
		}
		kt.add("imgproc.cast_us", t3, time.Now())

		want, err := dataprep.PrepareImageScratch(obj.Data, cfg, seed, s)
		if err != nil {
			return err
		}
		if err := sameF32(got.Data, want.Data); err != nil {
			return fmt.Errorf("kernel replay of %s epoch %d differs from PrepareImageScratch: %w", key, epoch, err)
		}
	}
	return nil
}

// replayAudio is replayImage for the audio path of
// dataprep.PrepareAudioScratch.
func replayAudio(store *storage.Store, keys []string, cfg dataprep.AudioConfig, datasetSeed int64, epoch int, kt kernelTimes) error {
	plan, err := dsp.NewMelPlan(cfg.Mel)
	if err != nil {
		return err
	}
	var sig []float64
	s := dataprep.NewScratch()
	for _, key := range keys {
		obj, err := store.Get(key)
		if err != nil {
			return err
		}
		seed := dataprep.SampleSeed(datasetSeed, key, epoch)

		t0 := time.Now()
		if sig, err = dsp.PCM16DecodeInto(sig, obj.Data); err != nil {
			return err
		}
		kt.add("dsp.pcm_decode_us", t0, time.Now())
		rng := rand.New(rand.NewSource(seed))
		if cfg.Augment && cfg.NoiseStd > 0 {
			t := time.Now()
			dsp.AddNoise(sig, cfg.NoiseStd, rng)
			kt.add("dsp.noise_us", t, time.Now())
		}
		mel := &dsp.Spectrogram{Data: make([]float64, cfg.Mel.STFT.NumFrames(len(sig))*cfg.Mel.NumMels)}
		t1 := time.Now()
		if err := plan.LogMelInto(mel, sig); err != nil {
			return err
		}
		kt.add("dsp.logmel_us", t1, time.Now())
		if cfg.Augment {
			t := time.Now()
			if cfg.TimeMaskWidth > 0 {
				dsp.TimeMask(mel, cfg.TimeMaskWidth, 0, rng)
			}
			if cfg.FreqMaskWidth > 0 {
				dsp.FreqMask(mel, cfg.FreqMaskWidth, 0, rng)
			}
			kt.add("dsp.mask_us", t, time.Now())
		}
		if cfg.Normalize {
			t := time.Now()
			dsp.Normalize(mel)
			kt.add("dsp.normalize_us", t, time.Now())
		}

		want, err := dataprep.PrepareAudioScratch(obj.Data, cfg, seed, s)
		if err != nil {
			return err
		}
		if err := sameF64(mel.Data, want.Data); err != nil {
			return fmt.Errorf("kernel replay of %s epoch %d differs from PrepareAudioScratch: %w", key, epoch, err)
		}
	}
	return nil
}

func sameF32(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("element %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func sameF64(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
