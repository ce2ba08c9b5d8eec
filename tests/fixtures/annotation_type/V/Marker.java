public @interface Marker {
    int x() default 0;
}

class Plain {
    int y;

    void f() {
    }
}
