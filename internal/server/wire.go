package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"

	"vmq/internal/geom"
	"vmq/internal/video"
)

// wireRect is a rectangle on the publisher wire.
type wireRect struct {
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
}

// wireObject is one annotated object on the publisher wire. Classes and
// colours travel by their canonical names ("car", "red"), the vocabulary
// VQL predicates use.
type wireObject struct {
	TrackID int      `json:"track_id"`
	Class   string   `json:"class"`
	Color   string   `json:"color,omitempty"`
	Box     wireRect `json:"box"`
	VX      float64  `json:"vx,omitempty"`
	VY      float64  `json:"vy,omitempty"`
}

// wireFrame is one published frame: the annotated ground-truth schema a
// feed's upstream annotation pass (the paper's Mask R-CNN stage) emits,
// as NDJSON over HTTP or one WebSocket text message. CameraID and Bounds
// are optional; they default to the feed's identity and frame rectangle.
type wireFrame struct {
	CameraID string       `json:"camera_id,omitempty"`
	Index    int          `json:"index"`
	Bounds   *wireRect    `json:"bounds,omitempty"`
	Objects  []wireObject `json:"objects"`
}

// encodeWireFrame converts a frame to its wire form (used by tests and
// reference publishers; the server itself only decodes).
func encodeWireFrame(f *video.Frame) wireFrame {
	wf := wireFrame{
		CameraID: f.CameraID,
		Index:    f.Index,
		Bounds:   &wireRect{X0: f.Bounds.X0, Y0: f.Bounds.Y0, X1: f.Bounds.X1, Y1: f.Bounds.Y1},
		Objects:  make([]wireObject, len(f.Objects)),
	}
	for i, o := range f.Objects {
		wo := wireObject{
			TrackID: o.TrackID,
			Class:   o.Class.String(),
			Box:     wireRect{X0: o.Box.X0, Y0: o.Box.Y0, X1: o.Box.X1, Y1: o.Box.Y1},
			VX:      o.Vel.X,
			VY:      o.Vel.Y,
		}
		if o.Color != video.AnyColor {
			wo.Color = o.Color.String()
		}
		wf.Objects[i] = wo
	}
	return wf
}

// frame converts the wire form to a video.Frame bound to the feed's
// profile: absent camera id and bounds take the profile's, so a minimal
// publisher only ships index and objects.
func (wf wireFrame) frame(p video.Profile) (*video.Frame, error) {
	f := &video.Frame{
		CameraID: wf.CameraID,
		Index:    wf.Index,
		Bounds:   p.Bounds(),
	}
	if f.CameraID == "" {
		f.CameraID = p.Name
	}
	if wf.Bounds != nil {
		f.Bounds = geom.Rect{X0: wf.Bounds.X0, Y0: wf.Bounds.Y0, X1: wf.Bounds.X1, Y1: wf.Bounds.Y1}
	}
	if len(wf.Objects) > 0 {
		f.Objects = make([]video.Object, len(wf.Objects))
	}
	for i, wo := range wf.Objects {
		cls, ok := video.ParseClass(wo.Class)
		if !ok {
			return nil, fmt.Errorf("frame %d object %d: unknown class %q", wf.Index, i, wo.Class)
		}
		col := video.AnyColor
		if wo.Color != "" {
			col, ok = video.ParseColor(wo.Color)
			if !ok {
				return nil, fmt.Errorf("frame %d object %d: unknown color %q", wf.Index, i, wo.Color)
			}
		}
		f.Objects[i] = video.Object{
			TrackID: wo.TrackID,
			Class:   cls,
			Color:   col,
			Box:     geom.Rect{X0: wo.Box.X0, Y0: wo.Box.Y0, X1: wo.Box.X1, Y1: wo.Box.Y1},
			Vel:     geom.Point{X: wo.VX, Y: wo.VY},
		}
	}
	return f, nil
}

// encodeFinite writes v with enc exactly as enc.Encode would, except that
// a value encoding/json refuses for holding a non-finite float is written
// with each such float as null. Events can carry one legitimately: a
// window whose control variate fits the samples exactly reports
// CV.Reduction = +Inf. Refusing it would end the consumer's stream
// without its end event; the in-process Event keeps the +Inf.
func encodeFinite(enc *json.Encoder, v any) error {
	err := enc.Encode(v)
	var uv *json.UnsupportedValueError
	if errors.As(err, &uv) {
		return enc.Encode(finiteTree(reflect.ValueOf(v)))
	}
	return err
}

// marshalFinite is json.Marshal with encodeFinite's non-finite rule.
func marshalFinite(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	var uv *json.UnsupportedValueError
	if errors.As(err, &uv) {
		return json.Marshal(finiteTree(reflect.ValueOf(v)))
	}
	return b, err
}

// finiteTree converts v into a value encoding/json renders byte for byte
// as it renders v — struct fields in declaration order under their json
// names, omitempty and "-" honoured — except that non-finite floats
// become null. It covers the kinds events are built from (structs,
// pointers, slices, strings, integers, floats); only the fallback path
// uses it.
func finiteTree(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsInf(f, 0) || math.IsNaN(f) {
			return nil
		}
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		return finiteTree(v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return nil
		}
		out := make([]any, v.Len())
		for i := range out {
			out[i] = finiteTree(v.Index(i))
		}
		return out
	case reflect.Struct:
		t := v.Type()
		var obj jsonObject
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if !sf.IsExported() || name == "-" {
				continue
			}
			if name == "" {
				name = sf.Name
			}
			fv := v.Field(i)
			if opts == "omitempty" && emptyJSON(fv) {
				continue
			}
			obj = append(obj, jsonField{name, finiteTree(fv)})
		}
		return obj
	}
	return v.Interface()
}

// emptyJSON is encoding/json's omitempty test for those kinds.
func emptyJSON(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	}
	return v.IsZero()
}

// jsonObject is a JSON object whose keys keep their order.
type jsonObject []jsonField

type jsonField struct {
	name string
	val  any
}

// MarshalJSON implements json.Marshaler.
func (o jsonObject) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for i, f := range o {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, _ := json.Marshal(f.name)
		val, err := json.Marshal(f.val)
		if err != nil {
			return nil, err
		}
		buf = append(append(append(buf, k...), ':'), val...)
	}
	return append(buf, '}'), nil
}
