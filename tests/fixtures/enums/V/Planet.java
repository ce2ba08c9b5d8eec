package enums;

// Each enum constant is one attribute, whatever follows its name: an
// argument list, a body (passed whole: its members are not the enum's),
// or nothing. The list may end in a ','.
public enum Planet {
    MERCURY(3.303e+23, 2.4397e6),
    EARTH(5.976e+24, 6.37814e6) {
        @Override
        String describe() {
            return "home";
        }
    },
    @Deprecated
    PLUTO(1.27e+22, 1.137e6),
    ;

    private final double mass;
    private final double radius;

    Planet(double mass, double radius) {
        this.mass = mass;
        this.radius = radius;
    }

    double surfaceGravity() {
        return 6.67300E-11 * mass / (radius * radius);
    }

    String describe() {
        return name().toLowerCase();
    }
}
